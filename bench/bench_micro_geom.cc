// Microbenchmarks for the geometry substrate: exact predicates, segment
// intersection, Hilbert keys, MER computation.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "geom/hilbert.h"
#include "geom/mer.h"
#include "geom/predicates.h"

namespace pbsm {
namespace {

Geometry RandomPolyline(Rng* rng, int n) {
  std::vector<Point> pts;
  Point p{rng->UniformDouble(0, 100), rng->UniformDouble(0, 100)};
  for (int i = 0; i < n; ++i) {
    pts.push_back(p);
    p.x += rng->UniformDouble(-1, 1);
    p.y += rng->UniformDouble(-1, 1);
  }
  return Geometry::MakePolyline(std::move(pts));
}

Geometry RandomPolygon(Rng* rng, int n) {
  const Point c{rng->UniformDouble(0, 100), rng->UniformDouble(0, 100)};
  std::vector<Point> ring;
  for (int i = 0; i < n; ++i) {
    const double angle = 2 * M_PI * i / n;
    const double r = 3.0 * (1.0 + 0.3 * rng->NextDouble());
    ring.push_back({c.x + std::cos(angle) * r, c.y + std::sin(angle) * r});
  }
  return Geometry::MakePolygon({ring});
}

void BM_SegmentsIntersect(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<Segment, Segment>> cases;
  for (int i = 0; i < 1024; ++i) {
    auto seg = [&]() {
      const Point a{rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)};
      return Segment{a, {a.x + rng.UniformDouble(-2, 2),
                         a.y + rng.UniformDouble(-2, 2)}};
    };
    cases.emplace_back(seg(), seg());
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = cases[i++ & 1023];
    benchmark::DoNotOptimize(SegmentsIntersect(a, b));
  }
}
BENCHMARK(BM_SegmentsIntersect);

void BM_PolylineIntersects(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Geometry a = RandomPolyline(&rng, n);
  const Geometry b = RandomPolyline(&rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Intersects(a, b, SegmentTestMode::kPlaneSweep));
  }
}
BENCHMARK(BM_PolylineIntersects)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_PolylineIntersectsNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Geometry a = RandomPolyline(&rng, n);
  const Geometry b = RandomPolyline(&rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersects(a, b, SegmentTestMode::kNaive));
  }
}
BENCHMARK(BM_PolylineIntersectsNaive)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_PointInPolygon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Geometry poly = RandomPolygon(&rng, n);
  const Point p = poly.Mbr().Center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PointInPolygon(p, poly));
  }
}
BENCHMARK(BM_PointInPolygon)->Arg(16)->Arg(46)->Arg(256);

void BM_PolygonContains(benchmark::State& state) {
  Rng rng(4);
  const Geometry outer = RandomPolygon(&rng, 46);
  // A small polygon at the outer's center (usually contained).
  Rng rng2(5);
  std::vector<Point> ring;
  const Point c = outer.Mbr().Center();
  for (int i = 0; i < 35; ++i) {
    const double angle = 2 * M_PI * i / 35;
    ring.push_back({c.x + std::cos(angle) * 0.4,
                    c.y + std::sin(angle) * 0.4});
  }
  const Geometry inner = Geometry::MakePolygon({ring});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Contains(outer, inner));
  }
}
BENCHMARK(BM_PolygonContains);

void BM_ComputeMer(benchmark::State& state) {
  Rng rng(6);
  const Geometry poly = RandomPolygon(&rng, 46);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMer(poly));
  }
}
BENCHMARK(BM_ComputeMer);

void BM_HilbertKey(benchmark::State& state) {
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert,
                                Rect(0, 0, 100, 100));
  Rng rng(7);
  double x = 50, y = 50;
  for (auto _ : state) {
    x = rng.UniformDouble(0, 100);
    y = rng.UniformDouble(0, 100);
    benchmark::DoNotOptimize(curve.Key(Point{x, y}));
  }
}
BENCHMARK(BM_HilbertKey);

void BM_ZOrderKey(benchmark::State& state) {
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kZOrder,
                                Rect(0, 0, 100, 100));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        curve.Key(Point{rng.UniformDouble(0, 100),
                        rng.UniformDouble(0, 100)}));
  }
}
BENCHMARK(BM_ZOrderKey);

void BM_GeometrySerialize(benchmark::State& state) {
  Rng rng(9);
  const Geometry g = RandomPolyline(&rng, 19);
  for (auto _ : state) {
    std::string buf;
    g.AppendTo(&buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_GeometrySerialize);

void BM_GeometryParse(benchmark::State& state) {
  Rng rng(10);
  const Geometry g = RandomPolyline(&rng, 19);
  std::string buf;
  g.AppendTo(&buf);
  GeometryBuffer scratch;
  GeometryView view;
  for (auto _ : state) {
    size_t consumed;
    scratch.clear();
    benchmark::DoNotOptimize(
        ParseGeometryView(reinterpret_cast<const uint8_t*>(buf.data()),
                          buf.size(), &scratch, &view, &consumed));
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_GeometryParse);

}  // namespace
}  // namespace pbsm

BENCHMARK_MAIN();
