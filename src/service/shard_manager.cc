#include "service/shard_manager.h"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "storage/tuple.h"

namespace pbsm {

ShardManager::ShardManager(ShardManagerConfig config)
    : config_(std::move(config)) {
  const uint32_t n = std::max(1u, config_.num_shards);
  if (config_.scratch_dir.empty()) {
    char tmpl[] = "/tmp/pbsm_shards_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    base_dir_ = dir != nullptr ? dir : "/tmp/pbsm_shards_fallback";
    owns_base_dir_ = true;
  } else {
    base_dir_ = config_.scratch_dir;
  }
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = i;
    shard->dir = base_dir_ + "/shard" + std::to_string(i);
    shard->disk =
        std::make_unique<DiskManager>(shard->dir, config_.disk_model);
    shard->pool = std::make_unique<BufferPool>(
        shard->disk.get(), config_.shard_pool_bytes, config_.io_retry);
    shard->cache =
        std::make_unique<IndexCache>(shard->pool.get(), config_.cache);
    shards_.push_back(std::move(shard));
  }
  replicated_ = MetricsRegistry::Global().GetCounter(
      "service.shard.replicated_tuples");
}

ShardManager::~ShardManager() {
  // Drop dataset refs and caches before the pools (member order inside
  // Shard handles cache -> pool -> disk); then remove the scratch tree.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->datasets.clear();
  }
  shards_.clear();
  if (owns_base_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(base_dir_, ec);
  }
}

ShardLayout ShardManager::layout() const {
  std::lock_guard<std::mutex> lock(layout_mutex_);
  return layout_;
}

Status ShardManager::EnsureLayout(const HeapFile* heap,
                                  const RelationInfo& info) {
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (layout_frozen_) return Status::OK();
  if (num_shards() <= 1 || info.cardinality == 0 || info.universe.empty()) {
    // Degenerate first dataset: no balanced cut is computable. Freeze a
    // single-strip layout (everything routes to shard 0) — correct for any
    // later dataset, just unbalanced; callers should register a real
    // dataset first.
    layout_ = num_shards() <= 1 || info.universe.empty()
                  ? ShardLayout(info.universe, {})
                  : UniformShardLayout(info.universe, num_shards());
    layout_frozen_ = true;
    return Status::OK();
  }
  TraceSpan span("shard/compute_layout");
  SpatialHistogram hist(info.universe, config_.histogram_nx,
                        config_.histogram_ny);
  PBSM_RETURN_IF_ERROR(
      heap->Scan([&hist](Oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
        hist.Add(mbr);
        return Status::OK();
      }));
  layout_ = ComputeShardLayout(hist, num_shards());
  layout_frozen_ = true;
  return Status::OK();
}

Status ShardManager::RegisterDataset(const std::string& name,
                                     const HeapFile* heap,
                                     const RelationInfo& info) {
  if (heap == nullptr) {
    return Status::InvalidArgument("RegisterDataset: null heap for '" + name +
                                   "'");
  }
  std::lock_guard<std::mutex> register_lock(register_mutex_);
  PBSM_RETURN_IF_ERROR(EnsureLayout(heap, info));
  const ShardLayout layout = this->layout();  // Frozen: safe to copy once.

  TraceSpan span("shard/register");
  // Build every slice off to the side, publish at the end — a failed
  // registration must not leave some shards with the dataset and others
  // without (the scatter-gather correctness argument needs all-or-nothing).
  std::vector<std::unique_ptr<ShardDataset>> slices(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    slices[i] = std::make_unique<ShardDataset>();
    PBSM_ASSIGN_OR_RETURN(
        HeapFile slice_heap,
        HeapFile::Create(shards_[i]->pool.get(),
                         name + ".shard" + std::to_string(i)));
    slices[i]->heap = std::make_unique<HeapFile>(std::move(slice_heap));
    slices[i]->info.name = name;
  }

  uint64_t replicated_copies = 0;
  GeometryBuffer scratch;
  TupleView tuple;
  PBSM_RETURN_IF_ERROR(heap->Scan([&](Oid global_oid, const char* data,
                                      size_t size) -> Status {
    scratch.clear();
    PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, &scratch, &tuple));
    const Rect mbr = tuple.geometry.Mbr();
    const uint64_t points = tuple.geometry.points().size();
    const ShardLayout::ShardRange range = layout.Overlapping(mbr);
    for (uint32_t sh = range.first; sh <= range.last; ++sh) {
      ShardDataset& slice = *slices[sh];
      PBSM_ASSIGN_OR_RETURN(const Oid local_oid,
                            slice.heap->Append(data, size));
      slice.local_to_global.emplace(local_oid.Encode(), global_oid);
      slice.mbrs.emplace(local_oid.Encode(), mbr);
      slice.info.cardinality += 1;
      slice.info.total_points += points;
      slice.info.universe.Expand(mbr);
      slice.info.sum_mbr_width += mbr.width();
      slice.info.sum_mbr_height += mbr.height();
      if (sh != range.first) ++replicated_copies;
    }
    return Status::OK();
  }));
  replicated_->Add(replicated_copies);

  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardDataset& slice = *slices[i];
    slice.info.file = slice.heap->file();
    slice.info.total_bytes = slice.heap->bytes();
    if (slice.info.cardinality > 0 && !slice.info.universe.empty()) {
      SpatialHistogram hist(slice.info.universe, config_.histogram_nx,
                            config_.histogram_ny);
      for (const auto& [oid, mbr] : slice.mbrs) hist.Add(mbr);
      slice.histogram.emplace(std::move(hist));
    }
    // Make the slice durable so per-shard join I/O is measured on clean
    // pools (mirrors LoadRelation's FlushAll after a bulk load).
    PBSM_RETURN_IF_ERROR(shards_[i]->pool->FlushAll());
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.catalog.Register(slices[i]->info);
    shard.datasets[name] = ShardDatasetRef(std::move(slices[i]));
  }
  return Status::OK();
}

Status ShardManager::DropDataset(const std::string& name) {
  std::lock_guard<std::mutex> register_lock(register_mutex_);
  bool found = false;
  for (auto& shard : shards_) {
    ShardDatasetRef dropped;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      auto it = shard->datasets.find(name);
      if (it == shard->datasets.end()) continue;
      dropped = std::move(it->second);
      shard->datasets.erase(it);
    }
    found = true;
    // Cached trees over the slice are stale; running queries keep their
    // refs (IndexCache pinning contract). The slice heap itself stays on
    // the shard's disk until the manager dies — queries may still hold the
    // ShardDatasetRef and scan it.
    shard->cache->InvalidateFile(dropped->info.file);
    shard->cache->InvalidateDataset(name);
  }
  if (!found) {
    return Status::NotFound("dataset '" + name + "' not registered");
  }
  return Status::OK();
}

Result<ShardManager::ShardDatasetRef> ShardManager::FindDataset(
    uint32_t shard_id, const std::string& name) const {
  PBSM_CHECK(shard_id < shards_.size());
  const Shard& shard = *shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.datasets.find(name);
  if (it == shard.datasets.end()) {
    return Status::NotFound("dataset '" + name + "' not registered");
  }
  return it->second;
}

size_t ShardManager::total_pinned_frames() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->pool->pinned_frames();
  return total;
}

}  // namespace pbsm
