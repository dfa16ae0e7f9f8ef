#include "core/sweep_kernel.h"

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/metrics.h"

namespace pbsm {

namespace {

/// Rounds up to the SoA padding granule.
size_t Padded(size_t n) { return (n + kSoaPad - 1) / kSoaPad * kSoaPad; }

/// Column capacity for n elements. Kernels may start a 4-wide load at any
/// unaligned offset < n, so reads reach up to n + 3; rounding n + 4 up to
/// the granule guarantees the sentinel pad covers every readable lane even
/// when n itself is a multiple of kSoaPad.
size_t PaddedCap(size_t n) { return Padded(n + 4); }

Counter* FallbackCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("sweep.kernel.fallback_scalar");
  return c;
}

Gauge* ReservedBytesGauge() {
  static Gauge* const g =
      MetricsRegistry::Global().GetGauge("sweep.alloc.reserved_bytes");
  return g;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

std::string_view KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2CompiledIn() {
#if PBSM_HAVE_AVX2_KERNEL
  return true;
#else
  return false;
#endif
}

bool Avx2Supported() {
#if PBSM_HAVE_AVX2_KERNEL && (defined(__x86_64__) || defined(__i386__))
  static const bool cpu_has = __builtin_cpu_supports("avx2") != 0;
  return cpu_has;
#else
  return false;
#endif
}

KernelKind ResolveKernel(SimdMode requested) {
  SimdMode mode = requested;
  if (mode == SimdMode::kAuto) {
    // Read at every resolution, so tests and operators can flip the knob
    // without rebuilding resolution caches. getenv is not free: joins
    // resolve once at entry and pass the KernelKind to per-probe code.
    const char* env = std::getenv("PBSM_SIMD");
    if (env != nullptr) {
      if (std::strcmp(env, "scalar") == 0) {
        mode = SimdMode::kScalar;
      } else if (std::strcmp(env, "avx2") == 0) {
        mode = SimdMode::kAvx2;
      }
      // "auto" (or anything else) keeps auto-detection.
    }
  }
  if (mode == SimdMode::kScalar) return KernelKind::kScalar;
  // kAvx2 or kAuto: prefer the vector kernel, fall back visibly.
  if (Avx2Supported()) return KernelKind::kAvx2;
  FallbackCounter()->Add();
  return KernelKind::kScalar;
}

// ---------------------------------------------------------------------------
// SoA buffers. One backing allocation holds the four coordinate columns and
// the oid column; the capacity is a multiple of kSoaPad (8 doubles = one
// cache line), so every column starts 64-byte aligned.
// ---------------------------------------------------------------------------

SoaRects::~SoaRects() {
  if (xlo_ != nullptr) {
    ::operator delete[](xlo_, std::align_val_t{64});
  }
}

size_t SoaRects::reserved_bytes() const {
  return capacity_ * (4 * sizeof(double) + sizeof(uint64_t));
}

void SoaRects::Reserve(size_t n) {
  const size_t cap = PaddedCap(n);
  if (cap <= capacity_) return;
  if (xlo_ != nullptr) {
    ::operator delete[](xlo_, std::align_val_t{64});
  }
  const size_t bytes = cap * (4 * sizeof(double) + sizeof(uint64_t));
  void* block = ::operator new[](bytes, std::align_val_t{64});
  xlo_ = static_cast<double*>(block);
  xhi_ = xlo_ + cap;
  ylo_ = xhi_ + cap;
  yhi_ = ylo_ + cap;
  oid_ = reinterpret_cast<uint64_t*>(yhi_ + cap);
  capacity_ = cap;
}

void SoaRects::PadTail(size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Sentinel rectangles with inverted bounds fail every closed-interval
  // overlap test, so kernels can read whole vectors past `size` — including
  // from unaligned offsets, which reach up to n + 3. Padding to PaddedCap
  // (not just Padded) also overwrites stale tail data left by a larger
  // earlier sweep through a reused scratch.
  for (size_t i = n; i < PaddedCap(n); ++i) {
    xlo_[i] = kInf;
    xhi_[i] = -kInf;
    ylo_[i] = kInf;
    yhi_[i] = -kInf;
    oid_[i] = 0;
  }
  size_ = n;
}

// ---------------------------------------------------------------------------
// Scalar kernels. The same contracts as the AVX2 TU; these are also the
// tail-free reference the differential tests pin the vector path against.
// ---------------------------------------------------------------------------

namespace sweep_internal {

namespace {

ScanResult ScanPairsScalar(const SoaView& other, size_t from, size_t lim,
                           double head_xhi, double head_ylo, double head_yhi,
                           uint64_t head_oid, bool head_is_r, OidPair* out,
                           uint64_t* /*simd_lanes*/) {
  ScanResult res;
  size_t k = from;
  for (; k < lim; ++k) {
    if (other.xlo[k] > head_xhi) {
      res.hit_x_end = true;
      break;
    }
    if (head_ylo <= other.yhi[k] && other.ylo[k] <= head_yhi) {
      const uint64_t other_oid = other.oid[k];
      out[res.matched++] = head_is_r ? OidPair{head_oid, other_oid}
                                     : OidPair{other_oid, head_oid};
    }
  }
  res.consumed = static_cast<uint32_t>(k - from);
  return res;
}

size_t ScanWindowScalar(const SoaView& rects, double qxlo, double qylo,
                        double qxhi, double qyhi, uint32_t* out_idx,
                        uint64_t* /*simd_lanes*/) {
  size_t hits = 0;
  for (size_t i = 0; i < rects.size; ++i) {
    if (rects.xlo[i] <= qxhi && qxlo <= rects.xhi[i] &&
        rects.ylo[i] <= qyhi && qylo <= rects.yhi[i]) {
      out_idx[hits++] = static_cast<uint32_t>(i);
    }
  }
  return hits;
}

size_t ScanWindowQ16Scalar(const SoaQ16View& rects, uint16_t wxlo,
                           uint16_t wylo, uint16_t wxhi, uint16_t wyhi,
                           uint32_t* out_idx, uint64_t* /*simd_lanes*/) {
  size_t hits = 0;
  for (size_t i = 0; i < rects.size; ++i) {
    if (rects.xlo[i] <= wxhi && wxlo <= rects.xhi[i] &&
        rects.ylo[i] <= wyhi && wylo <= rects.yhi[i]) {
      out_idx[hits++] = static_cast<uint32_t>(i);
    }
  }
  return hits;
}

// The scalar pair scan never reads past `lim`, so it already satisfies the
// stricter scan_pairs_span contract (arbitrary mid-array spans).
constexpr SweepKernelOps kScalarOps = {&ScanPairsScalar, &ScanWindowScalar,
                                       &ScanPairsScalar,
                                       &ScanWindowQ16Scalar};

}  // namespace

#if PBSM_HAVE_AVX2_KERNEL
// Defined in sweep_kernel_avx2.cc (the one TU built with -mavx2).
extern const SweepKernelOps kAvx2Ops;
#endif

const SweepKernelOps& KernelOps(KernelKind kind) {
#if PBSM_HAVE_AVX2_KERNEL
  if (kind == KernelKind::kAvx2) return kAvx2Ops;
#else
  (void)kind;
#endif
  return kScalarOps;
}

void FlushKernelMetrics(const KernelMetrics& m) {
  static Counter* const batches =
      MetricsRegistry::Global().GetCounter("sweep.kernel.batches");
  static Counter* const lanes =
      MetricsRegistry::Global().GetCounter("sweep.kernel.simd_lanes_used");
  static Counter* const flushes =
      MetricsRegistry::Global().GetCounter("sweep.buffer.flushes");
  if (m.batches != 0) batches->Add(m.batches);
  if (m.simd_lanes != 0) lanes->Add(m.simd_lanes);
  if (m.flushes != 0) flushes->Add(m.flushes);
}

}  // namespace sweep_internal

// ---------------------------------------------------------------------------
// Scratch.
// ---------------------------------------------------------------------------

SweepScratch::~SweepScratch() {
  if (reported_bytes_ != 0) {
    ReservedBytesGauge()->Add(-static_cast<int64_t>(reported_bytes_));
  }
}

SweepScratch& SweepScratch::ThreadLocal() {
  thread_local SweepScratch scratch;
  return scratch;
}

void SweepScratch::UpdateReservedGauge() {
  const size_t now = r_soa.reserved_bytes() + s_soa.reserved_bytes() +
                     t_soa.reserved_bytes() +
                     tkp.capacity() * sizeof(KeyPointer) +
                     idx.capacity() * sizeof(uint32_t) +
                     pairs.capacity() * sizeof(OidPair);
  if (now != reported_bytes_) {
    ReservedBytesGauge()->Add(static_cast<int64_t>(now) -
                              static_cast<int64_t>(reported_bytes_));
    reported_bytes_ = now;
  }
}

}  // namespace pbsm
