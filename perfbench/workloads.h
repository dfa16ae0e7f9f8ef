#ifndef PBSM_PERFBENCH_WORKLOADS_H_
#define PBSM_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "datagen/loader.h"
#include "storage/buffer_pool.h"

namespace pbsm {
namespace perfbench {

/// fig07_outofcore (serial pbsm, paper-2MB pool) and fig07_inmem_4t
/// (parallel_pbsm at 4 threads, pool >= 2x the inputs).
Report RunFig07(const Args& args, bool in_memory);

/// service_mixed: one JoinService driven closed-loop by 4 clients.
Report RunServiceMixed(const Args& args);

/// service_sharded4: a JoinRouter over 4 shards, 4 closed-loop clients.
Report RunServiceSharded(const Args& args);

/// Traced-run measurements shared by every workload, taken through the
/// public storage/geometry/index entry points on the workload's own pool:
/// FetchPage hit cost from 1 and 4 threads, HeapFile::Fetch, Tuple::Parse
/// and EvaluatePredicate per candidate, RStarTree::WindowQuery per probe and
/// the bulk load behind IndexCache::GetOrBuild. Candidates are the index
/// probe hits of a page-strided sample of `probe`'s tuples against an
/// R*-tree over `indexed`.
void MeasureSharedLayers(BufferPool* pool, const StoredRelation& probe,
                         const StoredRelation& indexed, Report* report);

}  // namespace perfbench
}  // namespace pbsm

#endif  // PBSM_PERFBENCH_WORKLOADS_H_
