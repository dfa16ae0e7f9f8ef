#ifndef PBSM_PERFBENCH_COMMON_H_
#define PBSM_PERFBENCH_COMMON_H_

// Shared pieces of the wall-clock benchmark: arguments, the order-
// independent pair-set checksum every result is folded into, the closed
// loop, percentile helpers, the per-run workspace, and the report that the
// binary prints as its last output line.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/tuple.h"

namespace pbsm {
namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's database files (created, removed at exit).
  std::string workdir;
  /// Multiplies every workload's data scale; the self-test runs tiny.
  double scale_mult = 1.0;
  /// FaultInjector::Parse spec armed on the workload's disks after setup.
  std::string fault_profile;
  /// Self-test hook: corrupt the reference checksum so every op mismatches.
  bool wrong_reference = false;
};

/// Order-independent checksum of a result-pair set: the wrapping sum and
/// count of a 64-bit mix of each (r, s) pair. Equal pair sets give equal
/// digests whatever order (or thread) produced them; a missing, extra or
/// duplicated pair changes the digest. Thread-safe.
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.sum == b.sum && a.count == b.count;
  }
};

class PairChecksum {
 public:
  void Add(Oid r, Oid s);
  Digest digest() const {
    return Digest{sum_.load(std::memory_order_relaxed),
                  count_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Outcome of one benchmark operation.
struct OpOutcome {
  enum Kind { kOk, kFailed, kWrong, kRefused };
  Kind kind = kOk;
  double seconds = 0.0;
};

/// What a closed loop measured. Latencies cover successful ops only;
/// failed, wrong-result and refused ops count against `attempted`.
struct LoopResult {
  std::vector<double> latencies;  ///< Seconds, successful ops.
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< Errors + wrong results + refusals.
  uint64_t wrong = 0;
  uint64_t refused = 0;
  double wall_seconds = 0.0;  ///< Loop start to last op completion.

  uint64_t completed() const { return attempted - failed; }
  void Merge(const LoopResult& o);
};

/// Runs `op(client, i)` back-to-back on `clients` threads (a closed loop:
/// each client issues its next op only after the previous one returned)
/// until `seconds` have elapsed and at least `min_ops` ops were issued.
/// Refused ops back off briefly before the client's next attempt.
LoopResult RunClosedLoop(int clients, double seconds, uint64_t min_ops,
                         const std::function<OpOutcome(int, uint64_t)>& op);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Seconds since an arbitrary steady epoch.
double NowSeconds();

/// Returns freed heap to the OS and resets the process's resident-set
/// high-water mark to its current RSS, so a later PeakRssMb() covers only
/// what follows. Where the kernel refuses the reset, PeakRssMb() stays the
/// peak of the whole process.
void ResetPeakRss();

/// Resident-set high-water mark of this process in MiB (VmHWM).
double PeakRssMb();

/// JSON object describing the host: the filter-kernel provenance fields
/// bench/bench_util.h's HostInfoJson() reports, plus nproc.
std::string HostJson();

/// One scratch database: a DiskManager under the run's work directory and
/// a BufferPool of `pool_bytes` over it. Removes its files on destruction.
class Workspace {
 public:
  Workspace(const std::string& dir, size_t pool_bytes);
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  DiskManager* disk() { return disk_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const std::string& dir() const { return dir_; }

  /// Arms FaultInjector::Parse(spec) on the disk; empty spec is a no-op.
  void ArmFaults(const std::string& spec);

 private:
  std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

/// A fresh, unique sub-directory path of the run's work directory.
std::string NewWorkDir(const Args& args, const std::string& tag);

/// Pages a heap of `tuples` would need (serialized size plus slot headers),
/// used to size buffer pools before loading.
uint64_t EstimatePages(const std::vector<Tuple>& tuples);

/// Paper cardinalities (Table 2) times `scale`, at least 10.
uint64_t ScaledCount(uint64_t full, double scale);
inline constexpr uint64_t kPaperRoad = 456613;
inline constexpr uint64_t kPaperHydro = 122149;
inline constexpr uint64_t kPaperRail = 16844;

/// One relation's tuples: the `kept` ones a run loads, and the `spare`
/// ones of the same draw it did not (a source of further tuples from the
/// same distribution, e.g. for view inserts).
struct SampledRelation {
  std::vector<Tuple> kept;
  std::vector<Tuple> spare;
};

/// Road, Hydrography and (optionally) Rail at `scale` x the paper's
/// cardinalities. The TIGER-like generator's geography — its cluster
/// layout, which sets most of a join's cost — is the generator's default
/// (seed 1996); `seed` draws which half of a twice-as-large draw each run
/// keeps. Runs with different seeds load different tuples from one
/// spatial distribution, so their costs are comparable.
struct TigerInputs {
  SampledRelation road, hydro, rail;
};
TigerInputs GenerateTiger(uint64_t seed, double scale, bool with_rail);

/// Keeps a result pair in a digest; empty keeps every pair.
using PairFilter = std::function<bool(Oid, Oid)>;

/// Runs SpatialJoin(pool, r, s, spec) with the sink replaced by a checksum
/// and returns the digest of the result pairs `keep` keeps.
Result<Digest> JoinDigest(BufferPool* pool, const JoinInput& r,
                          const JoinInput& s, JoinSpec spec,
                          const PairFilter& keep = nullptr);

/// Digest of the reference result: computed directly through the facade by
/// two methods that must agree (kRtree and kSpatialHash), so a wrong
/// reference cannot silently match a wrong operation. Sets `*problem` and
/// returns nullopt when they disagree or either fails.
std::optional<Digest> ReferenceDigest(BufferPool* pool, const JoinInput& r,
                                      const JoinInput& s,
                                      const std::optional<WindowFilter>& window,
                                      std::string* problem,
                                      const PairFilter& keep = nullptr);

/// Counter delta between two registry snapshots.
uint64_t CounterDelta(const MetricsSnapshot& after,
                      const MetricsSnapshot& before, const std::string& name);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string problem;    ///< First correctness problem seen, if any.
  std::string info_json;  ///< Workload description (inputs, pool, clients).

  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t samples = 1);
  void Fail(const std::string& why);
  /// Folds a loop's attempted/failed counts in.
  void Count(const LoopResult& loop);
};

/// The per-layer metric names in BENCHMARK.json order; a traced run reports
/// each of them (0 where the workload does not exercise that layer).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Fills every per-layer metric `report` lacks with 0 (not exercised).
void FillUnmappedLayers(Report* report);

/// Setups an untraced run repeats; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Calls `reset`, then times `setup`: kSetupReps times in an untraced run,
/// once in a traced one. Returns the seconds of each setup, or fails
/// `report` and returns an empty vector when a setup fails.
std::vector<double> TimedSetups(const Args& args, const std::string& workload,
                                const std::function<void()>& reset,
                                const std::function<Status()>& setup,
                                Report* report);

/// Tracing state a workload's op shares with RunPhases. Every op calls
/// BeforeOp() first: in the traced half it notes whether the tracer's
/// per-thread span cap dropped anything, then clears the tracer.
struct TraceState {
  std::atomic<bool> on{false};
  std::atomic<bool> dropped{false};
  void BeforeOp();
};

/// The measured loop of a run and the registry snapshots around it.
struct Phases {
  LoopResult measured;
  double untraced_p50 = 0.0;  ///< Median latency of the untraced loop.
  /// Resident-set high-water mark over the measured loop, in MiB.
  double peak_rss_mb = 0.0;
  MetricsSnapshot before;
  MetricsSnapshot after;
};

/// Untraced run: one closed loop of --seconds. Traced run: an untraced
/// loop of 40% of --seconds, `reset` (so figures collected by `op` cover
/// only what follows), then a traced loop of 40% — the one measured — and
/// the trace.overhead metric. Both loops count into `report`, which also
/// fails on a dropped span. The resident-set high-water mark is reset just
/// before the measured loop and read just after it.
Phases RunPhases(const Args& args, int clients, uint64_t min_ops,
                 TraceState* trace, Report* report,
                 const std::function<OpOutcome(int, uint64_t)>& op,
                 const std::function<void()>& reset);

/// Adds every end-to-end metric of an untraced run to `report`: latency
/// percentiles and throughput of the measured loop, the median setup time
/// and the loop's peak resident set.
void AddEndToEnd(const Phases& phases, const std::vector<double>& setup_s,
                 Report* report);

/// Buffer-pool hit rate, disk reads/writes and thread-pool steals per op,
/// from the registry deltas around the measured loop.
void AddStorageDeltas(const Phases& phases, double ops, Report* report);

}  // namespace perfbench
}  // namespace pbsm

#endif  // PBSM_PERFBENCH_COMMON_H_
