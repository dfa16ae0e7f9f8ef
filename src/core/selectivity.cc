#include "core/selectivity.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/tuple.h"

namespace pbsm {

double EstimateCandidatePairs(const RelationInfo& r, const RelationInfo& s) {
  if (r.cardinality == 0 || s.cardinality == 0) return 0.0;
  Rect universe = r.universe;
  universe.Expand(s.universe);
  const double n_pairs = static_cast<double>(r.cardinality) *
                         static_cast<double>(s.cardinality);
  const double area = universe.Area();
  if (area <= 0.0) return n_pairs;  // Degenerate universe: no pruning power.
  const double overlap_window =
      (r.avg_mbr_width() + s.avg_mbr_width()) *
      (r.avg_mbr_height() + s.avg_mbr_height());
  return n_pairs * std::min(1.0, overlap_window / area);
}

SpatialHistogram::SpatialHistogram(const Rect& universe, uint32_t nx,
                                   uint32_t ny)
    : universe_(universe), nx_(nx), ny_(ny) {
  PBSM_CHECK(!universe.empty()) << "histogram needs a non-empty universe";
  PBSM_CHECK(nx >= 1 && ny >= 1);
  cell_w_ = universe_.width() / nx_;
  cell_h_ = universe_.height() / ny_;
  cells_.resize(static_cast<size_t>(nx_) * ny_);
}

size_t SpatialHistogram::CellIndex(const Point& p) const {
  auto clamp_cell = [](double v, double lo, double extent, uint32_t cells) {
    if (extent <= 0) return 0u;
    const double c = (v - lo) / extent * cells;
    if (c <= 0) return 0u;
    return std::min(static_cast<uint32_t>(c), cells - 1);
  };
  const uint32_t cx = clamp_cell(p.x, universe_.xlo, universe_.width(), nx_);
  const uint32_t cy = clamp_cell(p.y, universe_.ylo, universe_.height(), ny_);
  return static_cast<size_t>(cy) * nx_ + cx;
}

void SpatialHistogram::Add(const Rect& mbr) {
  if (mbr.empty()) return;
  Cell& cell = cells_[CellIndex(mbr.Center())];
  ++cell.count;
  cell.sum_w += mbr.width();
  cell.sum_h += mbr.height();
  ++total_count_;
}

Result<SpatialHistogram> SpatialHistogram::Build(const HeapFile& heap,
                                                 const Rect& universe,
                                                 uint32_t nx, uint32_t ny) {
  SpatialHistogram hist(universe, nx, ny);
  PBSM_RETURN_IF_ERROR(
      heap.Scan([&](Oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
        hist.Add(mbr);
        return Status::OK();
      }));
  return hist;
}

double SpatialHistogram::EstimateJoinCandidates(
    const SpatialHistogram& other) const {
  PBSM_CHECK(nx_ == other.nx_ && ny_ == other.ny_)
      << "histograms must share a grid";
  const double cell_area = cell_w_ * cell_h_;
  if (cell_area <= 0) return 0.0;
  double estimate = 0.0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    const Cell& a = cells_[i];
    const Cell& b = other.cells_[i];
    if (a.count == 0 || b.count == 0) continue;
    // Uniform-within-cell model: two random rectangles of the cells'
    // average extents overlap with probability proportional to the area
    // swept by their Minkowski sum, capped at 1.
    const double p = std::min(
        1.0, (a.avg_w() + b.avg_w()) * (a.avg_h() + b.avg_h()) / cell_area);
    estimate += static_cast<double>(a.count) *
                static_cast<double>(b.count) * p;
  }
  return estimate;
}

double SpatialHistogram::EstimateWindowCount(const Rect& window) const {
  if (window.empty()) return 0.0;
  double estimate = 0.0;
  for (uint32_t cy = 0; cy < ny_; ++cy) {
    for (uint32_t cx = 0; cx < nx_; ++cx) {
      const Cell& cell = cells_[static_cast<size_t>(cy) * nx_ + cx];
      if (cell.count == 0) continue;
      const Rect cell_rect(universe_.xlo + cx * cell_w_,
                           universe_.ylo + cy * cell_h_,
                           universe_.xlo + (cx + 1) * cell_w_,
                           universe_.ylo + (cy + 1) * cell_h_);
      // Grow the window by the cell's average feature extents (a feature
      // centered outside the window can still overlap it), intersect with
      // the cell, and take the covered fraction.
      const Rect grown(window.xlo - cell.avg_w() / 2,
                       window.ylo - cell.avg_h() / 2,
                       window.xhi + cell.avg_w() / 2,
                       window.yhi + cell.avg_h() / 2);
      const double overlap = Rect::OverlapArea(grown, cell_rect);
      const double cell_area = cell_rect.Area();
      if (cell_area > 0) {
        estimate += static_cast<double>(cell.count) * overlap / cell_area;
      }
    }
  }
  return estimate;
}

std::vector<double> SpatialHistogram::ColumnLoads() const {
  std::vector<double> loads(nx_, 0.0);
  for (uint32_t cy = 0; cy < ny_; ++cy) {
    for (uint32_t cx = 0; cx < nx_; ++cx) {
      const Cell& cell = cells_[static_cast<size_t>(cy) * nx_ + cx];
      if (cell.count == 0) continue;
      const double span = cell_w_ > 0 ? 1.0 + cell.avg_w() / cell_w_ : 1.0;
      loads[cx] += static_cast<double>(cell.count) * span;
    }
  }
  return loads;
}

}  // namespace pbsm
