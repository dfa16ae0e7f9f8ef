#ifndef PBSM_EXEC_VIEW_MAINTAINER_H_
#define PBSM_EXEC_VIEW_MAINTAINER_H_

// Incrementally-maintained spatial join views: the result-pair set of a
// registered join, kept current under single-tuple inserts and deletes by
// tile-local delta joins instead of full recomputation. A warm view
// lookup is an in-memory set walk — orders of magnitude cheaper than
// re-running the join.

#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/spatial_join.h"
#include "core/spatial_partitioner.h"
#include "exec/operator.h"
#include "storage/tuple.h"

namespace pbsm {

/// One materialized join view over two stored relations.
///
/// Build() runs the base join once (through the SpatialJoin facade) and
/// snapshots per-side OID -> MBR maps plus per-tile OID lists over a
/// private tile grid. Insert(side, oid, tuple) then joins ONLY the new
/// tuple against the counterpart entries of the tiles its MBR overlaps —
/// the PBSM filter in miniature — de-duplicated by the reference-corner
/// rule (a candidate pair is counted only in the tile holding the
/// intersection rectangle's low corner, exactly one of the shared tiles,
/// clamping included), with the exact predicate evaluated as pred(r, s).
/// Delete(side, oid) removes the tuple's entry and every view pair it
/// participates in (an ordered range erase on the R side, a reverse
/// adjacency on the S side).
///
/// The caller owns the heaps and appends tuples BEFORE calling Insert
/// (heaps are append-only, so deletes are logical: the view and the
/// caller's catalog forget the OID, the record stays on disk). All
/// mutators and readers are serialized by an internal mutex.
class MaterializedJoinView {
 public:
  struct Config {
    std::string name;
    SpatialPredicate predicate = SpatialPredicate::kIntersects;
    /// Tile grid of the delta joins (independent of the base join's).
    uint32_t num_tiles = 256;
    /// Method/options of the initial build; sink and window are ignored.
    JoinSpec base;
  };

  enum class Side { kR, kS };

  /// Runs the base join and snapshots the maintenance state. The heaps
  /// behind `r` and `s` must outlive the view.
  static Result<std::unique_ptr<MaterializedJoinView>> Build(
      BufferPool* pool, const JoinInput& r, const JoinInput& s,
      Config config);

  /// Joins the (already appended) tuple at `oid` into the view.
  /// InvalidArgument if the OID is already present on that side.
  Status Insert(Side side, Oid oid, const Tuple& tuple);

  /// Removes the tuple and its pairs. NotFound for unknown OIDs.
  Status Delete(Side side, Oid oid);

  const std::string& name() const { return config_.name; }
  const Config& config() const { return config_; }

  uint64_t num_pairs() const;
  uint64_t num_r() const;
  uint64_t num_s() const;

  /// Streams the current pairs in ascending (OID_R, OID_S) order and
  /// returns how many it streamed. Both happen under one lock, so a
  /// concurrent Insert or Delete cannot make the count disagree with the
  /// pairs streamed.
  uint64_t Emit(const ResultSink& sink) const;
  /// Snapshot of the current pairs, ascending.
  std::vector<OidPair> Pairs() const;

 private:
  MaterializedJoinView(Config config, BufferPool* pool, const JoinInput& r,
                       const JoinInput& s);

  Status DeltaJoin(Side side, uint64_t oid, const Tuple& tuple,
                   const Rect& mbr);

  const Config config_;
  BufferPool* const pool_;
  const JoinInput r_;
  const JoinInput s_;
  std::optional<SpatialPartitioner> part_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Rect> r_mbrs_;
  std::unordered_map<uint64_t, Rect> s_mbrs_;
  std::vector<std::vector<uint64_t>> r_tiles_;
  std::vector<std::vector<uint64_t>> s_tiles_;
  /// The view itself, ordered for range erases and sorted emission.
  std::set<std::pair<uint64_t, uint64_t>> pairs_;
  /// Reverse adjacency: s OID -> r OIDs it pairs with (S-side deletes).
  std::unordered_map<uint64_t, std::vector<uint64_t>> s_to_r_;
  std::vector<TileAssignment> tiles_scratch_;
};

}  // namespace pbsm

#endif  // PBSM_EXEC_VIEW_MAINTAINER_H_
