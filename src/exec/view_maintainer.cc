#include "exec/view_maintainer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace pbsm {

namespace {

void EraseOid(std::vector<uint64_t>* list, uint64_t oid) {
  list->erase(std::remove(list->begin(), list->end(), oid), list->end());
}

}  // namespace

MaterializedJoinView::MaterializedJoinView(Config config, BufferPool* pool,
                                           const JoinInput& r,
                                           const JoinInput& s)
    : config_(std::move(config)), pool_(pool), r_(r), s_(s) {}

Result<std::unique_ptr<MaterializedJoinView>> MaterializedJoinView::Build(
    BufferPool* pool, const JoinInput& r, const JoinInput& s, Config config) {
  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("view inputs have an empty universe");
  }
  if (config.num_tiles == 0) {
    return Status::InvalidArgument("view needs at least one tile");
  }

  std::unique_ptr<MaterializedJoinView> view(
      new MaterializedJoinView(std::move(config), pool, r, s));
  view->part_.emplace(universe, view->config_.num_tiles,
                      /*num_partitions=*/1, TileMapping::kHash);
  view->r_tiles_.resize(view->part_->num_tiles());
  view->s_tiles_.resize(view->part_->num_tiles());

  // Base join through the facade (no lock needed: the view is private
  // until returned).
  JoinSpec spec = view->config_.base;
  spec.predicate = view->config_.predicate;
  spec.window.reset();
  spec.sink = [&view](Oid ro, Oid so) {
    const auto pair = std::make_pair(ro.Encode(), so.Encode());
    if (view->pairs_.insert(pair).second) {
      view->s_to_r_[pair.second].push_back(pair.first);
    }
  };
  PBSM_RETURN_IF_ERROR(SpatialJoin(pool, r, s, spec).status());

  // Snapshot the maintenance state: per-side MBR maps and tile lists.
  const auto snapshot = [&view](const JoinInput& input,
                                std::unordered_map<uint64_t, Rect>* mbrs,
                                std::vector<std::vector<uint64_t>>* tiles) {
    return input.heap->Scan(
        [&](Oid oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          (*mbrs)[oid.Encode()] = mbr;
          view->tiles_scratch_.clear();
          view->part_->ClassifyTiles(mbr, &view->tiles_scratch_);
          for (const TileAssignment& ta : view->tiles_scratch_) {
            (*tiles)[ta.tile].push_back(oid.Encode());
          }
          return Status::OK();
        });
  };
  PBSM_RETURN_IF_ERROR(snapshot(r, &view->r_mbrs_, &view->r_tiles_));
  PBSM_RETURN_IF_ERROR(snapshot(s, &view->s_mbrs_, &view->s_tiles_));

  MetricsRegistry::Global().GetCounter("view.builds")->Add();
  return view;
}

Status MaterializedJoinView::DeltaJoin(Side side, uint64_t oid,
                                       const Tuple& tuple, const Rect& mbr) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const auto& other_mbrs = side == Side::kR ? s_mbrs_ : r_mbrs_;
  const auto& other_tiles = side == Side::kR ? s_tiles_ : r_tiles_;
  const HeapFile* other_heap = side == Side::kR ? s_.heap : r_.heap;

  uint64_t candidates = 0, results = 0;
  std::string record;
  GeometryBuffer scratch;  // The fetched partner's geometry, reused.
  TupleView other_tuple;
  tiles_scratch_.clear();
  part_->ClassifyTiles(mbr, &tiles_scratch_);
  for (const TileAssignment& ta : tiles_scratch_) {
    for (const uint64_t other : other_tiles[ta.tile]) {
      const Rect& other_mbr = other_mbrs.at(other);
      if (!mbr.Intersects(other_mbr)) continue;
      // Reference-corner dedup: both sides' tile lists contain every tile
      // their MBR overlaps, so a pair sharing k tiles is seen k times —
      // count it only in the tile of the intersection's low corner (which
      // is a shared tile, clamping included, because TileFor clamps the
      // same way ClassifyTiles does).
      const uint32_t owner =
          part_->TileFor(std::max(mbr.xlo, other_mbr.xlo),
                         std::max(mbr.ylo, other_mbr.ylo));
      if (owner != ta.tile) continue;
      ++candidates;
      PBSM_RETURN_IF_ERROR(other_heap->Fetch(Oid::Decode(other), &record));
      scratch.clear();
      PBSM_RETURN_IF_ERROR(ParseTupleView(record.data(), record.size(),
                                          &scratch, &other_tuple));
      const bool hit =
          side == Side::kR
              ? EvaluatePredicate(config_.predicate, tuple.geometry,
                                  other_tuple.geometry,
                                  config_.base.options.refinement_mode)
              : EvaluatePredicate(config_.predicate, other_tuple.geometry,
                                  tuple.geometry,
                                  config_.base.options.refinement_mode);
      if (!hit) continue;
      ++results;
      const auto pair = side == Side::kR ? std::make_pair(oid, other)
                                         : std::make_pair(other, oid);
      if (pairs_.insert(pair).second) {
        s_to_r_[pair.second].push_back(pair.first);
      }
    }
  }
  metrics.GetCounter("view.delta_candidates")->Add(candidates);
  metrics.GetCounter("view.delta_results")->Add(results);
  return Status::OK();
}

Status MaterializedJoinView::Insert(Side side, Oid oid, const Tuple& tuple) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t encoded = oid.Encode();
  auto& mbrs = side == Side::kR ? r_mbrs_ : s_mbrs_;
  auto& tiles = side == Side::kR ? r_tiles_ : s_tiles_;
  const Rect mbr = tuple.geometry.Mbr();
  if (!mbrs.emplace(encoded, mbr).second) {
    return Status::InvalidArgument("view " + config_.name +
                                   ": OID already present");
  }
  // Join the new tuple against the counterpart side first, then register
  // its tile entries — the delta join must not see the tuple itself.
  PBSM_RETURN_IF_ERROR(DeltaJoin(side, encoded, tuple, mbr));
  tiles_scratch_.clear();
  part_->ClassifyTiles(mbr, &tiles_scratch_);
  for (const TileAssignment& ta : tiles_scratch_) {
    tiles[ta.tile].push_back(encoded);
  }
  MetricsRegistry::Global().GetCounter("view.inserts")->Add();
  return Status::OK();
}

Status MaterializedJoinView::Delete(Side side, Oid oid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t encoded = oid.Encode();
  auto& mbrs = side == Side::kR ? r_mbrs_ : s_mbrs_;
  auto& tiles = side == Side::kR ? r_tiles_ : s_tiles_;
  const auto it = mbrs.find(encoded);
  if (it == mbrs.end()) {
    return Status::NotFound("view " + config_.name + ": unknown OID");
  }
  const Rect mbr = it->second;
  mbrs.erase(it);
  tiles_scratch_.clear();
  part_->ClassifyTiles(mbr, &tiles_scratch_);
  for (const TileAssignment& ta : tiles_scratch_) {
    EraseOid(&tiles[ta.tile], encoded);
  }

  if (side == Side::kR) {
    // Ordered range erase: every pair with OID_R == encoded is contiguous.
    auto pit = pairs_.lower_bound({encoded, 0});
    while (pit != pairs_.end() && pit->first == encoded) {
      const auto adj = s_to_r_.find(pit->second);
      if (adj != s_to_r_.end()) {
        EraseOid(&adj->second, encoded);
        if (adj->second.empty()) s_to_r_.erase(adj);
      }
      pit = pairs_.erase(pit);
    }
  } else {
    const auto adj = s_to_r_.find(encoded);
    if (adj != s_to_r_.end()) {
      for (const uint64_t r_oid : adj->second) {
        pairs_.erase({r_oid, encoded});
      }
      s_to_r_.erase(adj);
    }
  }
  MetricsRegistry::Global().GetCounter("view.deletes")->Add();
  return Status::OK();
}

uint64_t MaterializedJoinView::num_pairs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pairs_.size();
}

uint64_t MaterializedJoinView::num_r() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return r_mbrs_.size();
}

uint64_t MaterializedJoinView::num_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return s_mbrs_.size();
}

uint64_t MaterializedJoinView::Emit(const ResultSink& sink) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [r_oid, s_oid] : pairs_) {
    sink(Oid::Decode(r_oid), Oid::Decode(s_oid));
  }
  return pairs_.size();
}

std::vector<OidPair> MaterializedJoinView::Pairs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<OidPair> out;
  out.reserve(pairs_.size());
  for (const auto& [r_oid, s_oid] : pairs_) {
    out.push_back(OidPair{r_oid, s_oid});
  }
  return out;
}

}  // namespace pbsm
