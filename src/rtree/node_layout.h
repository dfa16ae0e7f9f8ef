#ifndef PBSM_RTREE_NODE_LAYOUT_H_
#define PBSM_RTREE_NODE_LAYOUT_H_

#include <string_view>

namespace pbsm {

/// In-memory node representation of a bulk-loaded R*-tree (the SIMD-ified
/// layouts of arXiv 2309.16913; see DESIGN.md "SIMD-ified index traversal").
///
///  * kAos — no acceleration structure: every node scan parses the 8 KiB
///    page through the BufferPool and runs the entry-array kernel (the
///    pre-ribbon behaviour; also what Insert/Delete-mutated trees fall
///    back to).
///  * kSoaQuantized — per-node "ribbons" built once at bulk load and owned
///    by the tree, so node scans skip page parsing entirely:
///    xlo/xhi/ylo/yhi double lanes in contiguous 64-byte-aligned columns
///    plus uint16 lanes quantized to the node MBR with expand-outward
///    rounding. The uint16 lanes are a conservative 16-lane prefilter whose
///    survivors are re-verified against the double lanes, so results stay
///    exactly identical to kAos.
///  * kAuto — consult the PBSM_RTREE_LAYOUT environment variable
///    (`auto|aos|quantized`), defaulting to kSoaQuantized.
enum class NodeLayout { kAuto, kAos, kSoaQuantized };

/// "aos" / "quantized" — used by benches, baselines and logs.
std::string_view NodeLayoutName(NodeLayout layout);

/// Resolves kAuto through the PBSM_RTREE_LAYOUT environment variable
/// (`auto|aos|quantized`; unset or unrecognized -> kSoaQuantized).
/// Non-auto requests pass through unchanged. Read per call so operators and
/// tests can flip the knob without rebuilding resolution caches (same
/// contract as ResolveKernel / PBSM_SIMD).
NodeLayout ResolveNodeLayout(NodeLayout requested);

/// Cache-key tag of a resolved layout, versioned by the ribbon format
/// ("aos" / "q16.v1"). The IndexCache keys entries on this so a
/// tree built before a layout-knob change — or before a ribbon format
/// change across binary versions — is never served where a different
/// ribbon is expected. Bump the version suffix whenever the ribbon
/// build/quantization scheme changes semantics.
std::string_view NodeLayoutCacheTag(NodeLayout resolved);

}  // namespace pbsm

#endif  // PBSM_RTREE_NODE_LAYOUT_H_
