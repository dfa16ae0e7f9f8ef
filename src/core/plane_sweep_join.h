#ifndef PBSM_CORE_PLANE_SWEEP_JOIN_H_
#define PBSM_CORE_PLANE_SWEEP_JOIN_H_

// Knobs of the in-memory rectangle join that merges one partition pair
// (the §3.1 forward sweep). The sweep itself is PlaneSweepJoinBatch in
// core/sweep_kernel.h; this header stays light so JoinOptions and the
// R-tree can name the knobs without pulling in the kernels.

namespace pbsm {

/// Which data-parallel kernel the forward sweep and node scans run on.
/// kAuto consults the PBSM_SIMD environment variable (`auto|avx2|scalar`),
/// then CPUID; see core/sweep_kernel.h for the resolution rules.
enum class SimdMode { kAuto, kScalar, kAvx2 };

/// Whether a partition pair is already sorted on mbr.xlo. The §3.5
/// repartition path routes an already-sorted parent into sub-partitions in
/// order, so the recursive sweeps can skip the std::sort.
enum class InputOrder { kUnsorted, kSortedByXlo };

}  // namespace pbsm

#endif  // PBSM_CORE_PLANE_SWEEP_JOIN_H_
