#include "rtree/node_ribbon.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/metrics.h"
#include "rtree/rstar_tree.h"

namespace pbsm {

namespace {

/// Double lanes use the SoaRects padding scheme: capacity rounds n + 4 up
/// to the kSoaPad granule so a 4-wide load from any offset < n stays in
/// bounds, and the tail holds inverted-bound sentinels.
size_t DoubleCap(size_t n) {
  return (n + 4 + kSoaPad - 1) / kSoaPad * kSoaPad;
}

/// Quantized lanes round up to whole 16-lane vectors; tails are masked by
/// the kernels, not sentinel-killed, so any value may sit there.
size_t Q16Cap(size_t n) { return (n + kQ16Pad - 1) / kQ16Pad * kQ16Pad; }

Gauge* RibbonBytesGauge() {
  static Gauge* const g =
      MetricsRegistry::Global().GetGauge("rtree.ribbon.bytes");
  return g;
}

/// Grid cell of an exact lower bound: floor, clamped to the grid. Paired
/// with QHi below this is the conservative (expand-outward) rounding — the
/// affine map (v - base) * scale is monotone non-decreasing in v, so
/// a <= b implies QLo(a) <= QHi(b) and a quantized intersection test can
/// only admit extra entries, never drop true ones.
uint16_t QLo(double v, double base, double scale) {
  const double g = std::floor((v - base) * scale);
  if (!(g > 0.0)) return 0;
  if (g >= 65535.0) return 65535;
  return static_cast<uint16_t>(g);
}

/// Grid cell of an exact upper bound: ceil, clamped to the grid.
uint16_t QHi(double v, double base, double scale) {
  const double g = std::ceil((v - base) * scale);
  if (!(g > 0.0)) return 0;
  if (g >= 65535.0) return 65535;
  return static_cast<uint16_t>(g);
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout knob.
// ---------------------------------------------------------------------------

std::string_view NodeLayoutName(NodeLayout layout) {
  switch (layout) {
    case NodeLayout::kAuto:
      return "auto";
    case NodeLayout::kAos:
      return "aos";
    case NodeLayout::kSoaQuantized:
      return "quantized";
  }
  return "unknown";
}

NodeLayout ResolveNodeLayout(NodeLayout requested) {
  if (requested != NodeLayout::kAuto) return requested;
  // Read per call (index builds are coarse-grained) so tests and operators
  // can flip the knob without rebuilding resolution caches.
  const char* env = std::getenv("PBSM_RTREE_LAYOUT");
  if (env != nullptr) {
    if (std::strcmp(env, "aos") == 0) return NodeLayout::kAos;
    if (std::strcmp(env, "quantized") == 0) return NodeLayout::kSoaQuantized;
    // "auto" (or anything else) keeps the default.
  }
  return NodeLayout::kSoaQuantized;
}

std::string_view NodeLayoutCacheTag(NodeLayout resolved) {
  switch (resolved) {
    case NodeLayout::kSoaQuantized:
      return "q16.v1";
    case NodeLayout::kAos:
    case NodeLayout::kAuto:  // Resolve before tagging; treat as AoS.
      return "aos";
  }
  return "aos";
}

// ---------------------------------------------------------------------------
// NodeRibbon.
// ---------------------------------------------------------------------------

NodeRibbon::~NodeRibbon() { Free(); }

NodeRibbon::NodeRibbon(NodeRibbon&& other) noexcept { *this = std::move(other); }

NodeRibbon& NodeRibbon::operator=(NodeRibbon&& other) noexcept {
  if (this == &other) return *this;
  Free();
  xlo_ = std::exchange(other.xlo_, nullptr);
  xhi_ = std::exchange(other.xhi_, nullptr);
  ylo_ = std::exchange(other.ylo_, nullptr);
  yhi_ = std::exchange(other.yhi_, nullptr);
  handle_ = std::exchange(other.handle_, nullptr);
  qxlo_ = std::exchange(other.qxlo_, nullptr);
  qxhi_ = std::exchange(other.qxhi_, nullptr);
  qylo_ = std::exchange(other.qylo_, nullptr);
  qyhi_ = std::exchange(other.qyhi_, nullptr);
  count_ = std::exchange(other.count_, 0);
  bytes_ = std::exchange(other.bytes_, 0);
  level_ = std::exchange(other.level_, 0);
  built_ = std::exchange(other.built_, false);
  mbr_ = std::exchange(other.mbr_, Rect{});
  scale_x_ = std::exchange(other.scale_x_, 0.0);
  scale_y_ = std::exchange(other.scale_y_, 0.0);
  return *this;
}

void NodeRibbon::Free() {
  if (xlo_ != nullptr) {
    ::operator delete[](xlo_, std::align_val_t{64});
    RibbonBytesGauge()->Add(-static_cast<int64_t>(bytes_));
  }
  xlo_ = xhi_ = ylo_ = yhi_ = nullptr;
  handle_ = nullptr;
  qxlo_ = qxhi_ = qylo_ = qyhi_ = nullptr;
  count_ = 0;
  bytes_ = 0;
  built_ = false;
}

void NodeRibbon::Build(const RTreeEntry* entries, size_t n, uint16_t level) {
  Free();
  count_ = n;
  level_ = level;
  built_ = true;
  mbr_ = Rect{};
  for (size_t i = 0; i < n; ++i) mbr_.Expand(entries[i].mbr);

  const size_t dcap = DoubleCap(n);
  const size_t qcap = Q16Cap(n);
  bytes_ = dcap * (4 * sizeof(double) + sizeof(uint64_t)) +
           qcap * 4 * sizeof(uint16_t);
  void* block = ::operator new[](bytes_, std::align_val_t{64});
  RibbonBytesGauge()->Add(static_cast<int64_t>(bytes_));
  xlo_ = static_cast<double*>(block);
  xhi_ = xlo_ + dcap;
  ylo_ = xhi_ + dcap;
  yhi_ = ylo_ + dcap;
  handle_ = reinterpret_cast<uint64_t*>(yhi_ + dcap);
  qxlo_ = reinterpret_cast<uint16_t*>(handle_ + dcap);
  qxhi_ = qxlo_ + qcap;
  qylo_ = qxhi_ + qcap;
  qyhi_ = qylo_ + qcap;

  scale_x_ = mbr_.width() > 0.0 ? 65535.0 / mbr_.width() : 0.0;
  scale_y_ = mbr_.height() > 0.0 ? 65535.0 / mbr_.height() : 0.0;

  for (size_t i = 0; i < n; ++i) {
    const Rect& r = entries[i].mbr;
    xlo_[i] = r.xlo;
    xhi_[i] = r.xhi;
    ylo_[i] = r.ylo;
    yhi_[i] = r.yhi;
    handle_[i] = entries[i].handle;
    qxlo_[i] = QLo(r.xlo, mbr_.xlo, scale_x_);
    qxhi_[i] = QHi(r.xhi, mbr_.xlo, scale_x_);
    qylo_[i] = QLo(r.ylo, mbr_.ylo, scale_y_);
    qyhi_[i] = QHi(r.yhi, mbr_.ylo, scale_y_);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t i = n; i < dcap; ++i) {
    xlo_[i] = kInf;
    xhi_[i] = -kInf;
    ylo_[i] = kInf;
    yhi_[i] = -kInf;
    handle_[i] = 0;
  }
  // Tail lanes are masked by size in the q16 kernels, but zero them anyway
  // so the block never holds uninitialized bytes (MSan, dumps).
  for (size_t i = n; i < qcap; ++i) {
    qxlo_[i] = 0;
    qxhi_[i] = 0;
    qylo_[i] = 0;
    qyhi_[i] = 0;
  }
}

void NodeRibbon::QuantizeWindow(const Rect& w, uint16_t* wxlo, uint16_t* wylo,
                                uint16_t* wxhi, uint16_t* wyhi) const {
  // Same grid, same rounding roles as the entries: lows floor, highs ceil.
  // A window reaching outside the node MBR clamps to the grid edge, which
  // only widens it relative to the entries it could intersect.
  *wxlo = QLo(w.xlo, mbr_.xlo, scale_x_);
  *wxhi = QHi(w.xhi, mbr_.xlo, scale_x_);
  *wylo = QLo(w.ylo, mbr_.ylo, scale_y_);
  *wyhi = QHi(w.yhi, mbr_.ylo, scale_y_);
}

// ---------------------------------------------------------------------------
// Scans.
// ---------------------------------------------------------------------------

size_t ScanRibbonWindow(const NodeRibbon& ribbon, const Rect& window,
                        KernelKind kind, uint32_t* out_idx,
                        RibbonScanStats* stats) {
  if (ribbon.count() == 0 || window.empty()) return 0;
  const sweep_internal::SweepKernelOps& ops = sweep_internal::KernelOps(kind);
  stats->nodes_scanned += 1;
  stats->entries_tested += ribbon.count();
  if (kind == KernelKind::kAvx2) stats->simd_node_scans += 1;
  uint16_t wxlo, wylo, wxhi, wyhi;
  ribbon.QuantizeWindow(window, &wxlo, &wylo, &wxhi, &wyhi);
  const size_t cand = ops.scan_window_q16(ribbon.q16(), wxlo, wylo, wxhi,
                                          wyhi, out_idx, &stats->simd_lanes);
  // Re-verify the prefilter's survivors against the exact double lanes,
  // compacting in place: quantization slop admits extra candidates here but
  // never changes the final hit set.
  const SoaView v = ribbon.soa();
  size_t hits = 0;
  for (size_t i = 0; i < cand; ++i) {
    const uint32_t e = out_idx[i];
    if (v.xlo[e] <= window.xhi && window.xlo <= v.xhi[e] &&
        v.ylo[e] <= window.yhi && window.ylo <= v.yhi[e]) {
      out_idx[hits++] = e;
    }
  }
  return hits;
}

void FlushRibbonScanStats(const RibbonScanStats& stats) {
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("rtree.nodes_scanned");
  static Counter* const entries =
      MetricsRegistry::Global().GetCounter("rtree.entries_tested");
  static Counter* const leaf_hits =
      MetricsRegistry::Global().GetCounter("rtree.leaf_hits");
  static Counter* const simd_scans =
      MetricsRegistry::Global().GetCounter("rtree.simd_node_scans");
  static Counter* const lanes =
      MetricsRegistry::Global().GetCounter("sweep.kernel.simd_lanes_used");
  if (stats.nodes_scanned != 0) nodes->Add(stats.nodes_scanned);
  if (stats.entries_tested != 0) entries->Add(stats.entries_tested);
  if (stats.leaf_hits != 0) leaf_hits->Add(stats.leaf_hits);
  if (stats.simd_node_scans != 0) simd_scans->Add(stats.simd_node_scans);
  if (stats.simd_lanes != 0) lanes->Add(stats.simd_lanes);
}

}  // namespace pbsm
