//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the TraceSafe benchmark (tsbench): run
/// configuration, per-workload accounting, the metric rules, the seeded
/// input streams and the reference answers every verdict is checked
/// against. See README.md in this directory for the workloads and the map
/// from per-layer metric to end-to-end metric.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_BENCH_H
#define TSBENCH_BENCH_H

#include "daemon/Protocol.h"
#include "lang/Ast.h"
#include "support/Rng.h"
#include "trace/Interleaving.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <string>
#include <vector>

namespace tsbench {

using tracesafe::Behaviour;
using tracesafe::daemon::QueryKind;
using tracesafe::daemon::QueryRequest;
using tracesafe::daemon::QueryResponse;

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for sockets, journals, cache files and input
  /// files; removed at the end of the run.
  std::string RunDir;
  /// Directory the span dump is written to (kept after the run).
  std::string OutDir;
  /// This binary, re-executed as the daemon process.
  std::string SelfExe;
  unsigned Nproc = 1;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// One timed operation: a query, a campaign, a program or a log scan.
struct Op {
  double DoneS = 0;     ///< completion, seconds from the phase start
  double LatencyMs = 0;
  double Verdicts = 0;  ///< verdicts it delivered
  double Programs = 0;  ///< programs (or logs) behind them
  double Bytes = 0;     ///< input bytes behind them
};

/// Cumulative host CPU counters (USER_HZ ticks, all CPUs) at one instant.
struct StealSample {
  double AtS = 0;     ///< seconds since the monitor started
  uint64_t Steal = 0; ///< ticks the hypervisor gave to other guests
  uint64_t Total = 0; ///< all ticks
};

/// Samples /proc/stat every 50 ms from construction to finish(), so the
/// metrics can tell slices the program ran in from slices the host took
/// the CPUs away (steal time). Start it immediately before a timed phase.
class StealMonitor {
public:
  StealMonitor();
  ~StealMonitor() { finish(); }
  StealMonitor(const StealMonitor &) = delete;
  StealMonitor &operator=(const StealMonitor &) = delete;

  /// Stops sampling; returns every sample taken, the last one now.
  std::vector<StealSample> finish();

private:
  StealSample sample() const;

  std::chrono::steady_clock::time_point Start;
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false;                 ///< guarded by M
  std::vector<StealSample> Samples;  ///< guarded by M
  std::thread Sampler;               ///< declared last: uses the above
};

/// Share of CPU time stolen between \p FromS and \p ToS (0 when the
/// samples do not cover the interval).
double stealShare(const std::vector<StealSample> &S, double FromS,
                  double ToS);

/// Everything one workload run accounts for. Every operation is either
/// succeeded or failed; an Unknown-by-budget verdict succeeds but is
/// undecided.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t Failed = 0;
  uint64_t Decided = 0;   ///< Proved or Refuted
  uint64_t Undecided = 0; ///< Unknown (budget), not a failure
  // Failure causes (their sum is Failed).
  uint64_t Mismatches = 0;
  uint64_t TransportErrors = 0;
  uint64_t BadRequests = 0;
  uint64_t FinalOverloaded = 0;
  // Retry traffic that did not fail an operation.
  uint64_t OverloadedRetries = 0;
  uint64_t Retries = 0;

  std::vector<Op> Ops;             ///< the timed phase's operations
  std::vector<StealSample> Steal; ///< host steal over the timed phase
  std::vector<double> SetupS;     ///< one sample per set-up
  double PeakRssMb = 0;

  std::vector<Metric> Layer;      ///< per-layer metrics (traced run)
  std::vector<std::string> Notes; ///< human-readable lines for stdout

  void failed(uint64_t &Cause) {
    ++Attempted;
    ++Failed;
    ++Cause;
  }
};

//===----------------------------------------------------------------------===//
// Metric rules (Stats.cpp)
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile of \p Sorted (ascending), \p P in [0, 100].
double percentile(const std::vector<double> &Sorted, double P);

/// The tail percentile reported for \p N samples: 99 when at least ten
/// samples lie beyond it, otherwise the highest of 95, 90, 80, 75 and 50
/// that keeps ten beyond it; 50 when even that does not.
double tailPercentileFor(size_t N);

double median(std::vector<double> V);

/// Peak resident set (VmHWM) of \p Pid (0 = this process), in MB.
double peakRssMb(int Pid = 0);

/// Restarts this process's VmHWM from its current RSS, so the peak read
/// later excludes the benchmark's own reference computation.
void resetPeakRss();

/// Median latency of \p Ops, in ms.
double medianLatencyMs(const std::vector<Op> &Ops);

/// Start-ups timed per run; setup_s is their median. The daemon workloads
/// serve from the last daemon started.
constexpr unsigned SetupRepeats = 9;

/// Slices whose host steal share exceeds this are left out of the
/// metrics, as long as at least half of the slices remain.
constexpr double MaxSliceSteal = 0.03;

/// The end-to-end metrics of \p O, in BENCHMARK.json order. The timed
/// phase is cut into twenty consecutive slices of equal operation count
/// (completion order). Rates and latencies are medians over the slices of
/// each slice's value, so one disturbed second cannot move them; the tail
/// percentile is chosen by tailPercentileFor from all the operations of
/// the slices kept. Slices in which the host
/// stole more than MaxSliceSteal of the CPU time measure the host, not the
/// program, and are left out. \p Note, when given, receives a line
/// saying how many were.
std::vector<Metric> endToEndMetrics(const Outcome &O,
                                    std::string *Note = nullptr);

/// Formats \p V with every significant digit, for the result line.
std::string jsonNumber(double V);

//===----------------------------------------------------------------------===//
// Seeded inputs (Streams.cpp)
//===----------------------------------------------------------------------===//

/// One query of a daemon workload plus what the checker needs to know
/// about it: the stream index (request id in spans) and, for variants,
/// the pool query it renames.
struct StreamQuery {
  QueryRequest Req;
  uint64_t Index = 0;
  int64_t PoolOrigin = -1; ///< >= 0: alpha/thread variant of pool[Origin]
};

/// serve_cold-style generator: every query is a distinct generateProgram
/// program (all four disciplines, 2-3 threads) under ProgramDrf,
/// Behaviours, DrfGuarantee or (less often) ThinAir; the pair kinds use
/// (P, greedyChain(P, RuleSet::all())). Distinct means distinct canonical
/// text per kind, so no query can hit the verdict cache.
class ColdGenerator {
public:
  explicit ColdGenerator(uint64_t Seed);
  StreamQuery next();
  /// Only DrfGuarantee queries (the fuzz_harness campaign shape).
  StreamQuery nextDrfGuarantee();

private:
  StreamQuery make(QueryKind K, const tracesafe::Program &P);
  tracesafe::Program freshProgram(QueryKind K);

  tracesafe::Rng R;
  uint64_t NextIndex = 0;
  std::set<std::string> Seen;
};

/// A random consistent renaming of every identifier plus a random thread
/// permutation, applied jointly to \p Q's program and transformed text.
QueryRequest alphaVariant(const QueryRequest &Q, tracesafe::Rng &R);

/// serve_repeat stream over \p Pool: about 90% variants of pool queries,
/// 10% fresh queries from \p Fresh.
class RepeatGenerator {
public:
  RepeatGenerator(uint64_t Seed, const std::vector<StreamQuery> &Pool,
                  ColdGenerator &Fresh);
  StreamQuery next();

private:
  tracesafe::Rng R;
  const std::vector<StreamQuery> &Pool;
  ColdGenerator &Fresh;
  uint64_t NextIndex = 0;
};

/// The bytes of the first \p N queries of \p Workload's stream for
/// \p Seed (encoded Submit payloads), for the determinism test.
std::string streamBytes(const std::string &Workload, uint64_t Seed,
                        size_t N);

/// relaxed_sweep programs: 3-thread generateProgram programs.
std::vector<std::string> relaxedPrograms(uint64_t Seed, size_t N);

/// racelog_scan logs: race-free, mixed and lock-heavy Synth logs.
std::vector<std::string> raceLogs(uint64_t Seed, size_t N,
                                  uint64_t EventsPerLog);

//===----------------------------------------------------------------------===//
// Reference answers (Oracle.cpp)
//===----------------------------------------------------------------------===//

/// The known answer for one daemon query, computed by the independent
/// oracle engines (never the engine the workload times).
struct Reference {
  /// For ProgramDrf: DRF or not. For Behaviours: the behaviour set. For
  /// the pair kinds: the safe chain must be Proved.
  bool Drf = false;
  std::set<Behaviour> Behaviours;
  bool Complete = true; ///< false: the oracle itself was truncated
};

Reference referenceFor(const QueryRequest &Q);

/// Computes references for \p Qs on \p Threads threads.
std::vector<Reference> referencesFor(const std::vector<QueryRequest> &Qs,
                                     unsigned Threads);

enum class Check { Decided, Undecided, Mismatch };

/// Classifies one Ok daemon response against its reference.
Check checkResponse(const QueryRequest &Q, const QueryResponse &R,
                    const Reference &Ref);

/// Parses a Behaviours detail ("behaviours=N [a,b] [c] ...") and checks
/// it against \p Expected: the count matches and the listed behaviours
/// are the smallest ones of \p Expected, in order.
bool behavioursDetailMatches(const std::string &Detail,
                             const std::set<Behaviour> &Expected);

/// Accounts one checked verdict into \p O.
void account(Outcome &O, Check C);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Outcome runServeCold(const RunConfig &C);
Outcome runServeRepeat(const RunConfig &C);
Outcome runCampaignBurst(const RunConfig &C);
Outcome runRelaxedSweep(const RunConfig &C);
Outcome runRacelogScan(const RunConfig &C);

/// The per-layer metric names, in BENCHMARK.json order, with units. A
/// traced run prints all of them; layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

} // namespace tsbench

#endif // TSBENCH_BENCH_H
