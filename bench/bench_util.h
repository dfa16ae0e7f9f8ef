#ifndef PBSM_BENCH_BENCH_UTIL_H_
#define PBSM_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/join_cost.h"
#include "core/sweep_kernel.h"
#include "core/spatial_join.h"
#include "core/spatial_partitioner.h"
#include "datagen/loader.h"
#include "datagen/sequoia_gen.h"
#include "datagen/tiger_gen.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pbsm {
namespace bench {

// ---------------------------------------------------------------------------
// Scale handling.
//
// The paper's data sets (Table 2/3): Road 456,613 / Hydrography 122,149 /
// Rail 16,844 / Sequoia polygons 58,115 / islands (count not reported;
// 20,000 assumed). Benchmarks run at PBSM_SCALE (default 0.15) of those
// cardinalities, and the 2/8/24 MB buffer pools are scaled by the same
// factor so the pool-to-data ratios — which drive every figure — match the
// paper. Set PBSM_SCALE=1.0 to run at full paper size.
// ---------------------------------------------------------------------------

/// Calibration factor converting measured CPU seconds on this machine into
/// 1996 Paradise-on-SPARCstation-10/51 CPU seconds, so paper-comparable
/// totals (cpu1996 + modeled I/O) keep the paper's CPU-vs-I/O balance
/// (Table 4: CPU dominates, I/O is ~13-32% of total). The factor folds
/// together raw single-thread speedup (~50-100x vs the 50 MHz SuperSPARC)
/// and Paradise's interpreted-ADT overhead; 300x reproduces Table 4's PBSM
/// I/O share at the 24 MB point. Override with PBSM_CPU_SCALE.
inline double CpuScale() {
  const char* env = std::getenv("PBSM_CPU_SCALE");
  if (env == nullptr) return 300.0;
  return std::atof(env);
}

/// Paper-comparable cost of a phase: 1996-calibrated CPU + modeled I/O.
inline double PaperSeconds(const PhaseCost& cost) {
  return cost.cpu_seconds * CpuScale() + cost.io.modeled_seconds;
}

inline double ScaleFromEnv() {
  const char* env = std::getenv("PBSM_SCALE");
  if (env == nullptr) return 0.15;
  const double s = std::atof(env);
  PBSM_CHECK(s > 0.0 && s <= 4.0) << "PBSM_SCALE out of range: " << env;
  return s;
}

struct PaperCardinalities {
  uint64_t road = 456613;
  uint64_t hydro = 122149;
  uint64_t rail = 16844;
  uint64_t sequoia_polygons = 58115;
  uint64_t sequoia_islands = 20000;  // Assumed; not reported in the paper.
};

inline uint64_t Scaled(uint64_t full, double scale) {
  const uint64_t n = static_cast<uint64_t>(static_cast<double>(full) * scale);
  return n < 10 ? 10 : n;
}

/// Paper buffer-pool sizes in bytes, scaled. The extra 1.5x corrects for
/// our tuples being ~1.5x the paper's bytes-per-tuple (Paradise packed
/// coordinates more tightly), keeping the pool-to-data ratio — the variable
/// the figures sweep — aligned with the paper.
inline std::vector<std::pair<std::string, size_t>> PoolSizes(double scale) {
  auto mb = [scale](double m) {
    size_t bytes = static_cast<size_t>(m * 1024 * 1024 * scale * 1.5);
    if (bytes < 16 * kPageSize) bytes = 16 * kPageSize;
    return bytes;
  };
  return {{"2MB", mb(2)}, {"8MB", mb(8)}, {"24MB", mb(24)}};
}

// ---------------------------------------------------------------------------
// Fault profile plumbing (resilience experiments; see EXPERIMENTS.md).
//
// A scenario spec in FaultInjector::Parse syntax, e.g.
// "seed=42;read=0.01;torn=0.001", arms a deterministic fault injector on
// every Workspace the bench creates — loads included, exactly like a flaky
// device. Set via `--fault-profile=SPEC` (call ParseBenchArgs in main) or
// the PBSM_FAULT_PROFILE environment variable; the flag wins.
// ---------------------------------------------------------------------------

inline std::string& FaultProfileSpec() {
  static std::string spec = [] {
    const char* env = std::getenv("PBSM_FAULT_PROFILE");
    return env != nullptr ? std::string(env) : std::string();
  }();
  return spec;
}

/// Handles the common bench flags (currently just --fault-profile=SPEC).
/// Benches that take no other arguments call this at the top of main().
inline void ParseBenchArgs(int argc, char** argv) {
  const std::string prefix = "--fault-profile=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      FaultProfileSpec() = arg.substr(prefix.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace: a scratch directory with a DiskManager + BufferPool.
// ---------------------------------------------------------------------------

class Workspace {
 public:
  explicit Workspace(size_t pool_bytes) {
    char tmpl[] = "/tmp/pbsm_bench_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    dir_ = dir != nullptr ? dir : "/tmp/pbsm_bench_fallback";
    disk_ = std::make_unique<DiskManager>(dir_);
    if (!FaultProfileSpec().empty()) {
      auto injector = FaultInjector::Parse(FaultProfileSpec());
      PBSM_CHECK(injector.ok()) << "bad --fault-profile: "
                                << injector.status().ToString();
      disk_->set_fault_injector(std::move(*injector));
    }
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_bytes);
  }
  ~Workspace() {
    pool_.reset();
    disk_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  DiskManager* disk() { return disk_.get(); }
  BufferPool* pool() { return pool_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

// ---------------------------------------------------------------------------
// Data generation at benchmark scale.
// ---------------------------------------------------------------------------

struct TigerData {
  std::vector<Tuple> roads;
  std::vector<Tuple> hydro;
  std::vector<Tuple> rail;
};

inline TigerData GenTiger(double scale) {
  const PaperCardinalities card;
  TigerGenerator gen(TigerGenerator::Params{});
  TigerData d;
  d.roads = gen.GenerateRoads(Scaled(card.road, scale));
  d.hydro = gen.GenerateHydrography(Scaled(card.hydro, scale));
  d.rail = gen.GenerateRail(Scaled(card.rail, scale));
  return d;
}

struct SequoiaData {
  std::vector<Tuple> polygons;
  std::vector<Tuple> islands;
};

inline SequoiaData GenSequoia(double scale) {
  const PaperCardinalities card;
  SequoiaGenerator gen(SequoiaGenerator::Params{});
  SequoiaData d;
  d.polygons = gen.GeneratePolygons(Scaled(card.sequoia_polygons, scale));
  d.islands = gen.GenerateIslands(Scaled(card.sequoia_islands, scale));
  return d;
}

// ---------------------------------------------------------------------------
// Output helpers. Every bench prints the paper's numbers next to measured
// ones so EXPERIMENTS.md can be regenerated by reading the bench output.
// ---------------------------------------------------------------------------

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

inline void PrintScaleBanner(double scale) {
  std::printf(
      "  [scale=%.2f of paper cardinalities; pools scaled by the same "
      "factor; totals = cpu x %.0f (1996 CPU calibration) + modeled 1996 "
      "disk I/O]\n",
      scale, CpuScale());
}

/// One join execution summary line.
inline void PrintJoinRow(const std::string& label,
                         const JoinCostBreakdown& cost) {
  const PhaseCost total = cost.Total();
  const double cpu96 = total.cpu_seconds * CpuScale();
  const double t96 = PaperSeconds(total);
  std::printf(
      "  %-28s total=%9.2fs  (cpu96=%9.2fs io=%8.2fs io%%=%4.1f)  "
      "cand=%8llu dup=%7llu res=%8llu\n",
      label.c_str(), t96, cpu96, total.io_seconds(),
      t96 == 0 ? 0.0 : 100.0 * total.io_seconds() / t96,
      static_cast<unsigned long long>(cost.candidates),
      static_cast<unsigned long long>(cost.duplicates_removed),
      static_cast<unsigned long long>(cost.results));
}

/// Summary line for a facade JoinResult (same columns as the breakdown
/// overload, labelled with the method name when no label is given).
inline void PrintJoinRow(const std::string& label, const JoinResult& result) {
  PrintJoinRow(label.empty() ? std::string(JoinMethodName(result.method))
                             : label,
               result.breakdown);
}

/// Full component breakdown (Figures 10-12 / Table 4 format).
inline void PrintBreakdown(const std::string& label,
                           const JoinCostBreakdown& cost) {
  std::printf("  %s:\n", label.c_str());
  auto row = [](const std::string& name, const PhaseCost& phase) {
    const double t96 = PaperSeconds(phase);
    std::printf(
        "    %-26s total=%9.2fs cpu96=%9.2fs io=%8.2fs io%%=%5.1f  "
        "reads=%7llu (seq %7llu) writes=%7llu (seq %7llu)\n",
        name.c_str(), t96, phase.cpu_seconds * CpuScale(),
        phase.io_seconds(),
        t96 == 0 ? 0.0 : 100.0 * phase.io_seconds() / t96,
        static_cast<unsigned long long>(phase.io.reads),
        static_cast<unsigned long long>(phase.io.sequential_reads),
        static_cast<unsigned long long>(phase.io.writes),
        static_cast<unsigned long long>(phase.io.sequential_writes));
  };
  for (const auto& [name, phase] : cost.phases) row(name, phase);
  row("TOTAL", cost.Total());
}

/// Percentage of extra key-pointer copies created by the tiled partitioning
/// function (Figures 5/6 metric).
inline double ReplicationPercent(const std::vector<Tuple>& tuples,
                                 const Rect& universe, uint32_t tiles,
                                 uint32_t partitions, TileMapping mapping) {
  const SpatialPartitioner part(universe, tiles, partitions, mapping);
  uint64_t copies = 0;
  std::vector<uint32_t> targets;
  for (const Tuple& t : tuples) {
    targets.clear();
    part.PartitionsFor(t.geometry.Mbr(), &targets);
    copies += targets.size();
  }
  return 100.0 *
         (static_cast<double>(copies) / static_cast<double>(tuples.size()) -
          1.0);
}

/// Prints a Figures-5/6-style replication table for `tuples`.
inline void RunReplicationBench(const char* title,
                                const std::vector<Tuple>& tuples,
                                const char* paper_note, double scale) {
  PrintTitle(title);
  PrintScaleBanner(scale);
  PrintNote(paper_note);

  Rect universe;
  for (const Tuple& t : tuples) universe.Expand(t.geometry.Mbr());

  constexpr uint32_t kPartitions = 16;
  std::printf("  %14s   %-14s %-14s\n", "", "hash(+%)", "round robin(+%)");
  for (const uint32_t tiles :
       {100u, 256u, 529u, 1024u, 1600u, 2048u, 3072u, 4096u}) {
    const double h = ReplicationPercent(tuples, universe, tiles, kPartitions,
                                        TileMapping::kHash);
    const double r = ReplicationPercent(tuples, universe, tiles, kPartitions,
                                        TileMapping::kRoundRobin);
    std::printf("  %8u tiles:  %-14.3f %-14.3f\n", tiles, h, r);
  }
}

// ---------------------------------------------------------------------------
// Uniform metrics export. Every bench binary (all of them include this
// header, directly or via join_bench.h) prints one machine-readable line at
// exit:
//
//   METRICS_JSON {"schema":"pbsm.metrics.v1","metrics":{...},
//                 "derived":{...},"spans":{...}}
//
// `metrics` is the full MetricsSnapshot (counters/gauges/histograms),
// `derived` holds ready-made ratios (buffer-pool hit rate, refinement
// filter efficiency), `spans` is the nested phase-span tree. Disable with
// PBSM_NO_METRICS_JSON=1.
//
// The blob carries a "status" field ("ok" / "failed") and is emitted even
// when the bench dies on a PBSM_CHECK (SIGABRT): the abort handler below
// prints the blob tagged failed before re-raising, so harnesses that
// collect METRICS_JSON lines still get the partial run's counters instead
// of nothing. A bench that detects failure itself but wants a normal exit
// calls MarkBenchFailed() before returning non-zero.
// ---------------------------------------------------------------------------

/// Kernel provenance for the METRICS_JSON blob: which filter kernel the
/// auto dispatcher resolves to on this host, the CPU/build capability bits
/// behind that decision, any PBSM_SIMD override in effect, and the page
/// checksum kernel. Perf numbers without this block are unattributable
/// across machines.
inline std::string HostInfoJson() {
  const char* env = std::getenv("PBSM_SIMD");
  std::string out = "{\"resolved_kernel\":\"";
  out += KernelKindName(ResolveKernel(SimdMode::kAuto));
  out += "\",\"avx2_compiled_in\":";
  out += Avx2CompiledIn() ? "true" : "false";
  out += ",\"avx2_supported\":";
  out += Avx2Supported() ? "true" : "false";
  out += ",\"pbsm_simd_env\":\"";
  out += env != nullptr ? env : "";
  out += "\",\"crc32c_kernel\":\"";
  out += Crc32cKernelName();
  out += "\"}";
  return out;
}

/// The status the exit-hook blob reports. Sticky: once failed, stays
/// failed (a bench may hit several assertion paths before exiting).
inline const char*& BenchStatusRef() {
  static const char* status = "ok";
  return status;
}

inline void MarkBenchFailed() { BenchStatusRef() = "failed"; }

inline std::string MetricsJsonBlob() {
  // The blob may be taken mid-join (SIGABRT handler, cancellation exit):
  // materialize still-open spans so the tree below keeps their sub-spans.
  Tracer::Global().FlushOpenSpans();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const uint64_t hits = snap.counter("storage.bufferpool.hits");
  const uint64_t misses = snap.counter("storage.bufferpool.misses");
  const uint64_t tp = snap.counter("join.refine.true_positives");
  const uint64_t fp = snap.counter("join.refine.false_positives");
  auto rate = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  char derived[160];
  std::snprintf(derived, sizeof(derived),
                "{\"bufferpool_hit_rate\":%.6f,"
                "\"refine_true_positive_rate\":%.6f}",
                rate(hits, hits + misses), rate(tp, tp + fp));
  std::string out = "{\"schema\":\"pbsm.metrics.v1\",\"status\":\"";
  out += BenchStatusRef();
  out += "\",\"host\":";
  out += HostInfoJson();
  out += ",\"metrics\":";
  out += snap.ToJson();
  out += ",\"derived\":";
  out += derived;
  out += ",\"spans\":";
  out += Tracer::Global().SpanTreeJson();
  out += "}";
  return out;
}

inline void EmitMetricsJson() {
  const char* off = std::getenv("PBSM_NO_METRICS_JSON");
  if (off != nullptr && off[0] == '1') return;
  std::printf("METRICS_JSON %s\n", MetricsJsonBlob().c_str());
  std::fflush(stdout);
}

namespace bench_internal {

/// Single-shot guard: the blob must appear exactly once whether the bench
/// exits normally (static destructor) or aborts (signal handler).
inline bool EmitMetricsJsonOnce() {
  static std::atomic<bool> emitted{false};
  if (emitted.exchange(true)) return false;
  EmitMetricsJson();
  return true;
}

/// SIGABRT path: a PBSM_CHECK failure calls abort(), which skips static
/// destructors — without this handler a crashed bench emits nothing and
/// the harness cannot tell "crashed" from "never ran". Building the JSON
/// here is not async-signal-safe in the letter of POSIX, but SIGABRT is
/// raised synchronously by the failing thread and the process is dying
/// regardless; a garbled line is strictly better than a missing one.
inline void AbortEmitHandler(int) {
  MarkBenchFailed();
  (void)EmitMetricsJsonOnce();
  std::signal(SIGABRT, SIG_DFL);
  std::abort();
}

/// One instance per bench binary: the constructor arms the abort handler,
/// the destructor runs after main() returns, when all workspaces are torn
/// down and the metric writers have quiesced.
struct MetricsJsonAtExit {
  MetricsJsonAtExit() { std::signal(SIGABRT, AbortEmitHandler); }
  ~MetricsJsonAtExit() { (void)EmitMetricsJsonOnce(); }
};
inline MetricsJsonAtExit g_metrics_json_at_exit;

}  // namespace bench_internal

}  // namespace bench
}  // namespace pbsm

#endif  // PBSM_BENCH_BENCH_UTIL_H_
