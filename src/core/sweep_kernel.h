#ifndef PBSM_CORE_SWEEP_KERNEL_H_
#define PBSM_CORE_SWEEP_KERNEL_H_

// Vectorized, cache-conscious filter kernels.
//
// The filter step of every join method reduces to one of two dense loops:
// the §3.1 forward sweep's inner scan ("test the y-extents of a sorted run
// of rectangles against one head rectangle") and the R-tree node scan
// ("test every entry of a node against one query window"). This layer
// implements both as branch-light batch kernels over struct-of-arrays
// coordinate buffers:
//
//  * `SoaRects` transposes key-pointer / node-entry arrays into 64-byte
//    aligned `xlo[]/xhi[]/ylo[]/yhi[]/oid[]` columns, padded to the SIMD
//    width with never-matching sentinel rectangles so kernels never need a
//    scalar tail loop for reads.
//  * Two kernel implementations sit behind one function-pointer table:
//    a portable scalar path and an AVX2 path (4 y-overlap tests per
//    instruction) compiled in its own TU with `-mavx2`. `ResolveKernel`
//    picks one at runtime from `JoinOptions::simd`, the `PBSM_SIMD`
//    environment variable (`auto|avx2|scalar`) and CPUID.
//  * Matches are compressed into a fixed-capacity `OidPair` buffer and
//    handed to a *templated batch sink* — `void sink(const OidPair*,
//    size_t)` — so hot paths pay one (inlinable) call per few thousand
//    pairs instead of one `std::function` dispatch per pair.
//
// Scratch buffers (`SweepScratch`) are reused across calls via a
// thread-local instance, so the parallel executor's per-partition sweep
// tasks stop re-allocating coordinate and pair vectors. The
// `sweep.alloc.reserved_bytes` gauge tracks the bytes so reserved.
//
// Metrics: `sweep.kernel.batches`, `sweep.kernel.simd_lanes_used`,
// `sweep.kernel.fallback_scalar`, `sweep.buffer.flushes` (see DESIGN.md,
// "Vectorized filter kernels").

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/key_pointer.h"
#include "core/plane_sweep_join.h"
#include "geom/rect.h"

namespace pbsm {

// ---------------------------------------------------------------------------
// Kernel dispatch.
// ---------------------------------------------------------------------------

/// The concrete kernel implementation a sweep resolved to.
enum class KernelKind { kScalar, kAvx2 };

/// "scalar" / "avx2" — recorded in bench METRICS_JSON and baselines.
std::string_view KernelKindName(KernelKind kind);

/// True when the AVX2 TU was compiled into this binary (build-time check).
bool Avx2CompiledIn();

/// True when the AVX2 kernel is both compiled in and supported by this CPU.
bool Avx2Supported();

/// Resolves a requested mode to a runnable kernel. `kAuto` consults the
/// PBSM_SIMD environment variable (`auto|avx2|scalar`), then CPUID. A
/// request for AVX2 (explicit or auto) that lands on scalar bumps
/// `sweep.kernel.fallback_scalar`.
KernelKind ResolveKernel(SimdMode requested);

// ---------------------------------------------------------------------------
// SoA coordinate buffers.
// ---------------------------------------------------------------------------

/// Raw view of one SoA rectangle set. `size` is the logical element count;
/// every column is readable up to the next multiple of kSoaPad elements
/// (the tail holds sentinel rectangles that fail every overlap test).
struct SoaView {
  const double* xlo = nullptr;
  const double* xhi = nullptr;
  const double* ylo = nullptr;
  const double* yhi = nullptr;
  const uint64_t* oid = nullptr;
  size_t size = 0;
};

/// Columns are padded (and the capacity rounded) to a multiple of this many
/// elements — 8 doubles = one 64-byte cache line, a whole number of 4-lane
/// AVX2 vectors.
inline constexpr size_t kSoaPad = 8;

/// Raw view of one quantized (uint16) SoA rectangle set — the R-tree node
/// ribbon's prefilter lanes (rtree/node_ribbon.h). Coordinates are grid
/// cells relative to some node MBR; the quantization contract (entry lo
/// floored, hi ceiled, query rounded outward on the same grid) makes the
/// q16 intersection test a conservative superset of the exact double test.
/// Every column must be readable up to the next multiple of kQ16Pad
/// elements; tail lanes may hold garbage — kernels mask them by `size`
/// (inverted-bound sentinels cannot exist in unsigned space, where a
/// full-range query window matches everything).
struct SoaQ16View {
  const uint16_t* xlo = nullptr;
  const uint16_t* xhi = nullptr;
  const uint16_t* ylo = nullptr;
  const uint16_t* yhi = nullptr;
  size_t size = 0;
};

/// Quantized columns are padded to a multiple of this many elements — 16
/// uint16 lanes = one 256-bit AVX2 vector.
inline constexpr size_t kQ16Pad = 16;

/// Owning 64-byte-aligned SoA rectangle buffer, reusable across calls
/// (Assign only reallocates on growth). Works for any element type with an
/// `mbr` rectangle and an `oid` or `handle` payload (KeyPointer,
/// RTreeEntry).
class SoaRects {
 public:
  SoaRects() = default;
  ~SoaRects();
  SoaRects(const SoaRects&) = delete;
  SoaRects& operator=(const SoaRects&) = delete;

  template <typename T>
  void Assign(const T* items, size_t n) {
    Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      xlo_[i] = items[i].mbr.xlo;
      xhi_[i] = items[i].mbr.xhi;
      ylo_[i] = items[i].mbr.ylo;
      yhi_[i] = items[i].mbr.yhi;
      if constexpr (requires { items[i].oid; }) {
        oid_[i] = items[i].oid;
      } else {
        oid_[i] = items[i].handle;
      }
    }
    PadTail(n);
  }

  SoaView view() const { return SoaView{xlo_, xhi_, ylo_, yhi_, oid_, size_}; }
  size_t size() const { return size_; }
  /// Bytes currently reserved for the columns (gauge accounting).
  size_t reserved_bytes() const;

 private:
  /// Grows the single backing allocation to hold `n` elements; keeps
  /// existing capacity otherwise. Defined in sweep_kernel.cc.
  void Reserve(size_t n);
  /// Writes sentinel (never-matching) rectangles into [n, padded cap).
  void PadTail(size_t n);

  double* xlo_ = nullptr;
  double* xhi_ = nullptr;
  double* ylo_ = nullptr;
  double* yhi_ = nullptr;
  uint64_t* oid_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

// ---------------------------------------------------------------------------
// Kernel entry points (internal function-pointer table).
// ---------------------------------------------------------------------------

namespace sweep_internal {

/// Elements one scan_pairs call processes at most; a multiple of kSoaPad so
/// mid-array batches stay vector-aligned.
inline constexpr size_t kScanBlock = 1024;

/// Outcome of one scan_pairs batch.
struct ScanResult {
  uint32_t consumed = 0;  ///< Elements advanced past (<= lim - from).
  uint32_t matched = 0;   ///< OidPairs appended to `out`.
  bool hit_x_end = false; ///< Scan ended because xlo exceeded the head's xhi.
};

/// Scans `other` elements [from, lim) against one head rectangle: stops at
/// the first element with xlo > head_xhi (inputs are sorted on xlo), tests
/// y-overlap on the rest, and appends matching pairs to `out` (which must
/// have room for lim - from pairs). Pairs are oriented (R, S) via
/// `head_is_r`. `lim - from` must be a multiple of 4 unless lim == size
/// (the padded tail absorbs the overshoot). Adds vector-processed element
/// counts to `*simd_lanes`.
using ScanPairsFn = ScanResult (*)(const SoaView& other, size_t from,
                                   size_t lim, double head_xhi,
                                   double head_ylo, double head_yhi,
                                   uint64_t head_oid, bool head_is_r,
                                   OidPair* out, uint64_t* simd_lanes);

/// Tests every element of `rects` against the closed query window and
/// writes the indices of intersecting elements to `out_idx` (room for
/// rects.size entries required). Returns the hit count.
using ScanWindowFn = size_t (*)(const SoaView& rects, double qxlo,
                                double qylo, double qxhi, double qyhi,
                                uint32_t* out_idx, uint64_t* simd_lanes);

/// Quantized window scan: tests every element of `rects` against the
/// closed query window [wxlo, wxhi] x [wylo, wyhi] in uint16 grid space and
/// writes intersecting indices to `out_idx` (room for rects.size entries).
/// The AVX2 path tests 16 rectangles per compare. This is the conservative
/// prefilter of the quantized node ribbon — callers re-verify survivors
/// against the exact double lanes. Returns the hit count.
using ScanWindowQ16Fn = size_t (*)(const SoaQ16View& rects, uint16_t wxlo,
                                   uint16_t wylo, uint16_t wxhi,
                                   uint16_t wyhi, uint32_t* out_idx,
                                   uint64_t* simd_lanes);

struct SweepKernelOps {
  ScanPairsFn scan_pairs;
  ScanWindowFn scan_window;
  /// Same semantics as scan_pairs but safe for *any* mid-array [from, lim):
  /// lanes at or past `lim` are masked out instead of relying on the padded
  /// tail, so callers may stop a scan at an arbitrary run boundary (the
  /// two-layer mini-joins scan per-tile class runs inside one big SoA).
  ScanPairsFn scan_pairs_span;
  /// Quantized node-scan prefilter (R-tree ribbons).
  ScanWindowQ16Fn scan_window_q16;
};

/// The resolved implementation table for a kernel kind.
const SweepKernelOps& KernelOps(KernelKind kind);

/// Per-call metric accumulator, flushed once per sweep to the global
/// registry so kernels never touch atomics per batch.
struct KernelMetrics {
  uint64_t batches = 0;
  uint64_t simd_lanes = 0;
  uint64_t flushes = 0;
};

void FlushKernelMetrics(const KernelMetrics& m);

}  // namespace sweep_internal

// ---------------------------------------------------------------------------
// Scratch reuse.
// ---------------------------------------------------------------------------

/// Number of OidPairs buffered between batch-sink flushes.
inline constexpr size_t kPairBufferCap = 4096;

/// Reusable per-thread working memory for the filter kernels: SoA columns,
/// the window-scan index buffer, and the pair buffer. Obtain via
/// ThreadLocal() (one per thread, reused across partitions/tasks) or
/// stack-allocate for isolation in tests.
struct SweepScratch {
  SoaRects r_soa;
  SoaRects s_soa;
  /// Transposed (x<->y swapped) per-tile class run for the two-layer A×C /
  /// C×A mini-joins, plus the staging vector it is assembled in.
  SoaRects t_soa;
  std::vector<KeyPointer> tkp;
  std::vector<uint32_t> idx;
  std::vector<OidPair> pairs;  // Resized once to kPairBufferCap.

  SweepScratch() = default;
  ~SweepScratch();
  SweepScratch(const SweepScratch&) = delete;
  SweepScratch& operator=(const SweepScratch&) = delete;

  static SweepScratch& ThreadLocal();

  /// Publishes the delta of reserved bytes since the last call to the
  /// `sweep.alloc.reserved_bytes` gauge.
  void UpdateReservedGauge();

 private:
  size_t reported_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Batch sweeps. The Sink contract: `void sink(const OidPair* pairs,
// size_t n)` — invoked with at most kPairBufferCap pairs per flush; pairs
// are (r_oid, s_oid) oriented, in no particular order, each candidate
// exactly once per sweep.
// ---------------------------------------------------------------------------

/// The in-memory rectangle join of one partition pair: the §3.1 forward
/// sweep over SoA columns, the entry every join method's filter uses. Sorts
/// both inputs on mbr.xlo in place unless `order` says they already are
/// (the repartition fast path), then runs the two-cursor sweep with the
/// kernel `simd` resolves to, handing candidate pairs to `sink` in blocks.
/// `scratch` defaults to the calling thread's SweepScratch. Returns the
/// number of pairs emitted.
template <typename Sink>
uint64_t PlaneSweepJoinBatch(std::vector<KeyPointer>* r,
                             std::vector<KeyPointer>* s, Sink&& sink,
                             SimdMode simd = SimdMode::kAuto,
                             InputOrder order = InputOrder::kUnsorted,
                             SweepScratch* scratch = nullptr) {
  if (r->empty() || s->empty()) return 0;
  SweepScratch& sc = scratch != nullptr ? *scratch : SweepScratch::ThreadLocal();
  if (order != InputOrder::kSortedByXlo) {
    auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
      return a.mbr.xlo < b.mbr.xlo;
    };
    std::sort(r->begin(), r->end(), by_xlo);
    std::sort(s->begin(), s->end(), by_xlo);
  }
  sc.r_soa.Assign(r->data(), r->size());
  sc.s_soa.Assign(s->data(), s->size());
  const SoaView rv = sc.r_soa.view();
  const SoaView sv = sc.s_soa.view();
  if (sc.pairs.size() < kPairBufferCap) {
    sc.pairs.resize(kPairBufferCap);
  }
  OidPair* const buf = sc.pairs.data();
  size_t buf_size = 0;
  uint64_t total = 0;
  sweep_internal::KernelMetrics m;
  const sweep_internal::SweepKernelOps& ops =
      sweep_internal::KernelOps(ResolveKernel(simd));

  auto flush = [&] {
    if (buf_size == 0) return;
    sink(static_cast<const OidPair*>(buf), buf_size);
    ++m.flushes;
    buf_size = 0;
  };
  // Scans `other` from `from` while x-extents overlap the head (§3.1),
  // in buffer-bounded batches.
  auto scan = [&](const SoaView& head, size_t h, const SoaView& other,
                  size_t from, bool head_is_r) {
    const double head_xhi = head.xhi[h];
    const double head_ylo = head.ylo[h];
    const double head_yhi = head.yhi[h];
    const uint64_t head_oid = head.oid[h];
    size_t k = from;
    while (k < other.size) {
      if (buf_size + sweep_internal::kScanBlock > kPairBufferCap) flush();
      const size_t lim =
          std::min(k + sweep_internal::kScanBlock, other.size);
      const sweep_internal::ScanResult res =
          ops.scan_pairs(other, k, lim, head_xhi, head_ylo, head_yhi,
                         head_oid, head_is_r, buf + buf_size, &m.simd_lanes);
      ++m.batches;
      buf_size += res.matched;
      total += res.matched;
      k += res.consumed;
      if (res.hit_x_end) break;
    }
  };

  size_t i = 0, j = 0;
  while (i < rv.size && j < sv.size) {
    if (rv.xlo[i] <= sv.xlo[j]) {
      scan(rv, i, sv, j, /*head_is_r=*/true);
      ++i;
    } else {
      scan(sv, j, rv, i, /*head_is_r=*/false);
      ++j;
    }
  }
  flush();
  sweep_internal::FlushKernelMetrics(m);
  sc.UpdateReservedGauge();
  return total;
}

// ---------------------------------------------------------------------------
// Node / window scans.
// ---------------------------------------------------------------------------

/// Appends to `out_idx` the index of every item whose MBR intersects
/// `query` (closed boundaries), using the resolved batch kernel. Works for
/// any element type with an `mbr` member (RTreeEntry, KeyPointer). Returns
/// the number of hits appended.
template <typename T>
size_t OverlapScan(const T* items, size_t n, const Rect& query,
                   KernelKind kind, std::vector<uint32_t>* out_idx,
                   SweepScratch* scratch = nullptr) {
  if (n == 0 || query.empty()) return 0;
  SweepScratch& sc = scratch != nullptr ? *scratch : SweepScratch::ThreadLocal();
  sc.r_soa.Assign(items, n);
  sc.idx.resize(n);
  sweep_internal::KernelMetrics m;
  const sweep_internal::SweepKernelOps& ops = sweep_internal::KernelOps(kind);
  const size_t hits = ops.scan_window(sc.r_soa.view(), query.xlo, query.ylo,
                                      query.xhi, query.yhi, sc.idx.data(),
                                      &m.simd_lanes);
  ++m.batches;
  sweep_internal::FlushKernelMetrics(m);
  out_idx->insert(out_idx->end(), sc.idx.begin(), sc.idx.begin() + hits);
  sc.UpdateReservedGauge();
  return hits;
}

// ---------------------------------------------------------------------------
// Ready-made batch sinks.
// ---------------------------------------------------------------------------

/// Appends every flushed block to a std::vector<OidPair>.
struct VectorBatchSink {
  std::vector<OidPair>* out;
  void operator()(const OidPair* pairs, size_t n) const {
    out->insert(out->end(), pairs, pairs + n);
  }
};

/// Feeds flushed blocks to an ExternalSorter-like object via AddBatch,
/// capturing the first failure (later blocks are dropped once failed).
template <typename Sorter>
struct SorterBatchSink {
  Sorter* sorter;
  Status* status;
  void operator()(const OidPair* pairs, size_t n) const {
    if (!status->ok()) return;
    *status = sorter->AddBatch(pairs, n);
  }
};

}  // namespace pbsm

#endif  // PBSM_CORE_SWEEP_KERNEL_H_
