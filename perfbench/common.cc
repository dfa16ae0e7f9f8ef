#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/sweep_kernel.h"
#include "datagen/tiger_gen.h"
#include "storage/fault_injector.h"

namespace pbsm {
namespace perfbench {

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void PairChecksum::Add(Oid r, Oid s) {
  const uint64_t h = Mix64(Mix64(r.Encode()) ^ (s.Encode() + 0x9e3779b97f4a7c15ull));
  sum_.fetch_add(h, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void LoopResult::Merge(const LoopResult& o) {
  latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
  attempted += o.attempted;
  failed += o.failed;
  wrong += o.wrong;
  refused += o.refused;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoopResult RunClosedLoop(int clients, double seconds, uint64_t min_ops,
                         const std::function<OpOutcome(int, uint64_t)>& op) {
  std::vector<LoopResult> per_client(clients);
  std::atomic<uint64_t> issued{0};
  const double start = NowSeconds();
  const double deadline = start + seconds;
  auto body = [&](int c) {
    LoopResult& mine = per_client[c];
    for (uint64_t i = 0;; ++i) {
      if (NowSeconds() >= deadline &&
          issued.load(std::memory_order_relaxed) >= min_ops) {
        break;
      }
      issued.fetch_add(1, std::memory_order_relaxed);
      const OpOutcome out = op(c, i);      ++mine.attempted;
      switch (out.kind) {
        case OpOutcome::kOk:
          mine.latencies.push_back(out.seconds);
          break;
        case OpOutcome::kWrong:
          ++mine.wrong;
          ++mine.failed;
          break;
        case OpOutcome::kRefused:
          ++mine.refused;
          ++mine.failed;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        case OpOutcome::kFailed:
          ++mine.failed;
          break;
      }
    }
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  }
  LoopResult all;
  for (const LoopResult& r : per_client) all.Merge(r);
  all.wall_seconds = NowSeconds() - start;
  return all;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void ResetPeakRss() {
  ::malloc_trim(0);
  // Writing "5" resets VmHWM to the current RSS (proc(5), clear_refs).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string HostJson() {
  const char* env = std::getenv("PBSM_SIMD");
  const std::string_view kernel =
      KernelKindName(ResolveKernel(SimdMode::kAuto));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"resolved_kernel\":\"%.*s\",\"avx2_compiled_in\":%s,"
                "\"avx2_supported\":%s,\"pbsm_simd_env\":\"%s\","
                "\"nproc\":%u}",
                static_cast<int>(kernel.size()), kernel.data(),
                Avx2CompiledIn() ? "true" : "false",
                Avx2Supported() ? "true" : "false", env != nullptr ? env : "",
                std::thread::hardware_concurrency());
  return buf;
}

Workspace::Workspace(const std::string& dir, size_t pool_bytes) : dir_(dir) {
  disk_ = std::make_unique<DiskManager>(dir_);
  pool_ = std::make_unique<BufferPool>(disk_.get(), pool_bytes);
}

Workspace::~Workspace() {
  pool_.reset();
  disk_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void Workspace::ArmFaults(const std::string& spec) {
  if (spec.empty()) return;
  auto injector = FaultInjector::Parse(spec);
  PBSM_CHECK(injector.ok()) << "bad --fault-profile: "
                            << injector.status().ToString();
  disk_->set_fault_injector(std::move(*injector));
}

std::string NewWorkDir(const Args& args, const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  return args.workdir + "/" + tag + "_" + std::to_string(counter++);
}

uint64_t EstimatePages(const std::vector<Tuple>& tuples) {
  constexpr uint64_t kPerRecord = 8 + 4 + 1 + 4 + 4;  // Header + slot.
  uint64_t bytes = 0;
  for (const Tuple& t : tuples) {
    bytes += kPerRecord + t.name.size() + t.geometry.SerializedSize();
  }
  return bytes / (kPageSize - 4) + 1;
}

uint64_t ScaledCount(uint64_t full, double scale) {
  const uint64_t n = static_cast<uint64_t>(static_cast<double>(full) * scale);
  return n < 10 ? 10 : n;
}

namespace {

/// Keeps exactly half of `all` (selection sampling, seeded), in order.
SampledRelation SampleHalf(std::vector<Tuple> all, Rng* rng) {
  SampledRelation out;
  uint64_t need = all.size() / 2;
  uint64_t left = all.size();
  for (Tuple& t : all) {
    if (rng->Uniform(left--) < need) {
      out.kept.push_back(std::move(t));
      --need;
    } else {
      out.spare.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace

TigerInputs GenerateTiger(uint64_t seed, double scale, bool with_rail) {
  TigerGenerator gen(TigerGenerator::Params{});
  Rng rng(seed);
  TigerInputs in;
  in.road = SampleHalf(gen.GenerateRoads(2 * ScaledCount(kPaperRoad, scale)),
                       &rng);
  in.hydro = SampleHalf(
      gen.GenerateHydrography(2 * ScaledCount(kPaperHydro, scale)), &rng);
  if (with_rail) {
    in.rail = SampleHalf(gen.GenerateRail(2 * ScaledCount(kPaperRail, scale)),
                         &rng);
  }
  return in;
}

Result<Digest> JoinDigest(BufferPool* pool, const JoinInput& r,
                          const JoinInput& s, JoinSpec spec,
                          const PairFilter& keep) {
  PairChecksum sum;
  spec.sink = [&sum, &keep](Oid a, Oid b) {
    if (!keep || keep(a, b)) sum.Add(a, b);
  };
  PBSM_RETURN_IF_ERROR(SpatialJoin(pool, r, s, spec).status());
  return sum.digest();
}

std::optional<Digest> ReferenceDigest(BufferPool* pool, const JoinInput& r,
                                      const JoinInput& s,
                                      const std::optional<WindowFilter>& window,
                                      std::string* problem,
                                      const PairFilter& keep) {
  std::optional<Digest> first;
  for (const JoinMethod method : {JoinMethod::kRtree, JoinMethod::kSpatialHash}) {
    JoinSpec spec;
    spec.method = method;
    spec.window = window;
    auto digest = JoinDigest(pool, r, s, spec, keep);
    if (!digest.ok()) {
      *problem = "reference join failed: " + digest.status().ToString();
      return std::nullopt;
    }
    if (first.has_value() && !(*first == *digest)) {
      *problem = "reference methods rtree and spatial_hash disagree";
      return std::nullopt;
    }
    first = *digest;
  }
  return first;
}

uint64_t CounterDelta(const MetricsSnapshot& after,
                      const MetricsSnapshot& before, const std::string& name) {
  const uint64_t a = after.counter(name);
  const uint64_t b = before.counter(name);
  return a > b ? a - b : 0;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void Report::Add(const std::string& name, const std::string& unit,
                 double value, uint64_t samples) {
  metrics.push_back(Metric{name, unit, value, samples});
}

void Report::Fail(const std::string& why) {
  if (correct) problem = why;
  correct = false;
}

void Report::Count(const LoopResult& loop) {
  attempted += loop.attempted;
  failed += loop.failed;
  if (loop.failed > 0) {
    Fail(std::to_string(loop.failed) + " of " +
         std::to_string(loop.attempted) + " ops failed (" +
         std::to_string(loop.wrong) + " wrong results, " +
         std::to_string(loop.refused) + " refused)");
  }
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"storage.pool_hit_rate", "ratio"},
      {"storage.disk_reads_per_op", "count"},
      {"storage.disk_writes_per_op", "count"},
      {"storage.fetch_hit_ns.t1", "ns"},
      {"storage.fetch_hit_ns.t4", "ns"},
      {"storage.heap_fetch_ns", "ns"},
      {"core.partition.self_s", "s"},
      {"core.partition.replication", "ratio"},
      {"core.filter.self_s", "s"},
      {"core.filter.precision", "ratio"},
      {"core.refine.self_s", "s"},
      {"core.refine.share", "ratio"},
      {"core.refine.parse_ns", "ns"},
      {"core.refine.predicate_ns", "ns"},
      {"core.refine.true_hit_rate", "ratio"},
      {"core.parallel.refine_wall_s", "s"},
      {"core.parallel.utilisation", "ratio"},
      {"core.parallel.sweep_balance_cov", "ratio"},
      {"core.parallel.speedup_wall", "ratio"},
      {"exec.overhead_s", "s"},
      {"common.threadpool.steals_per_op", "count"},
      {"rtree.window_probe_us", "us"},
      {"rtree.bulkload_s", "s"},
      {"service.queue_wait_ms.p50", "ms"},
      {"service.queue_wait_ms.p95", "ms"},
      {"service.exec_ms.p50", "ms"},
      {"service.cache_hit_rate", "ratio"},
      {"service.plan_us", "us"},
      {"service.admission_waits_per_op", "count"},
      {"service.view_insert_us", "us"},
      {"service.view_query_us", "us"},
      {"service.router.critical_slice_ms", "ms"},
      {"service.router.gather_overhead_ms", "ms"},
      {"service.router.slice_skew", "ratio"},
      {"service.router.stolen_share", "ratio"},
      {"service.router.subjoins_per_op", "count"},
      {"service.router.border_filtered_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kLayers;
}

std::vector<double> TimedSetups(const Args& args, const std::string& workload,
                                const std::function<void()>& reset,
                                const std::function<Status()>& setup,
                                Report* report) {
  std::vector<double> seconds;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    reset();  // Tears the previous copy down outside the timing.
    const double start = NowSeconds();
    const Status status = setup();
    if (!status.ok()) {
      report->Fail(workload + " setup failed: " + status.ToString());
      return {};
    }
    seconds.push_back(NowSeconds() - start);
  }
  return seconds;
}

void AddEndToEnd(const Phases& phases, const std::vector<double>& setup_s,
                 Report* report) {
  const LoopResult& loop = phases.measured;
  const uint64_t n = loop.latencies.size();
  report->Add("latency_p50_ms", "ms", 1e3 * Percentile(loop.latencies, 0.50),
              n);
  report->Add("latency_p95_ms", "ms", 1e3 * Percentile(loop.latencies, 0.95),
              n);
  report->Add("throughput_ops_s", "1/s",
              Ratio(static_cast<double>(loop.completed()), loop.wall_seconds),
              n);
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("peak_rss_mb", "MiB", phases.peak_rss_mb);
}

void TraceState::BeforeOp() {
  if (!on.load(std::memory_order_relaxed)) return;
  if (Tracer::Global().dropped_spans() > 0) dropped.store(true);
  Tracer::Global().Clear();
}

Phases RunPhases(const Args& args, int clients, uint64_t min_ops,
                 TraceState* trace, Report* report,
                 const std::function<OpOutcome(int, uint64_t)>& op,
                 const std::function<void()>& reset) {
  Phases phases;
  const double seconds = args.trace ? 0.4 * args.seconds : args.seconds;
  if (args.trace) {
    const LoopResult plain = RunClosedLoop(clients, seconds, min_ops, op);
    report->Count(plain);
    phases.untraced_p50 = Median(plain.latencies);
    reset();
    Tracer::Global().set_enabled(true);
    trace->on.store(true);
  }
  phases.before = MetricsRegistry::Global().Snapshot();
  ResetPeakRss();
  phases.measured = RunClosedLoop(clients, seconds, min_ops, op);
  phases.peak_rss_mb = PeakRssMb();
  phases.after = MetricsRegistry::Global().Snapshot();
  report->Count(phases.measured);
  if (!args.trace) {
    phases.untraced_p50 = Median(phases.measured.latencies);
    return phases;
  }
  trace->BeforeOp();  // Checks the last op's spans too.
  trace->on.store(false);
  Tracer::Global().set_enabled(false);
  if (trace->dropped.load()) report->Fail("tracer dropped spans");
  report->Add("trace.overhead", "ratio",
              Ratio(Median(phases.measured.latencies) - phases.untraced_p50,
                    phases.untraced_p50),
              phases.measured.latencies.size());
  return phases;
}

void AddStorageDeltas(const Phases& p, double ops, Report* report) {
  const double hits =
      CounterDelta(p.after, p.before, "storage.bufferpool.hits");
  const double misses =
      CounterDelta(p.after, p.before, "storage.bufferpool.misses");
  report->Add("storage.pool_hit_rate", "ratio", Ratio(hits, hits + misses));
  report->Add("storage.disk_reads_per_op", "count",
              Ratio(CounterDelta(p.after, p.before, "storage.disk.reads"), ops));
  report->Add("storage.disk_writes_per_op", "count",
              Ratio(CounterDelta(p.after, p.before, "storage.disk.writes"),
                    ops));
  report->Add("common.threadpool.steals_per_op", "count",
              Ratio(CounterDelta(p.after, p.before, "common.threadpool.steals"),
                    ops));
}

void FillUnmappedLayers(Report* report) {
  std::map<std::string, Metric> have;
  for (Metric& m : report->metrics) have[m.name] = std::move(m);
  report->metrics.clear();
  for (const auto& [name, unit] : LayerMetricUnits()) {
    auto it = have.find(name);
    report->metrics.push_back(it != have.end() ? it->second
                                               : Metric{name, unit, 0.0, 0});
  }
}

}  // namespace perfbench
}  // namespace pbsm
