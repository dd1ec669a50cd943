//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process workloads: relaxed_sweep (SC, TSO and PSO behaviours of
/// 3-thread programs at Workers = nproc) and racelog_scan (scanRaceLog at
/// Shards = Workers = nproc). Inputs are written to files first; set-up is
/// an engine process starting and reading them, as the CLIs do.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Daemon.h"
#include "Layers.h"
#include "Spans.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "racelog/Detect.h"
#include "trace/Enumerate.h"
#include "tso/PsoMachine.h"
#include "tso/TsoMachine.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <tuple>

namespace tsbench {

using namespace tracesafe;
using Clock = std::chrono::steady_clock;

namespace {


double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream(Path, std::ios::binary) << Bytes;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Runs \p Body(I) for I in [0, N) on \p Threads threads.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < std::max(1u, Threads); ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Runs \p Body round-robin over \p N inputs for \p Seconds, one timed
/// operation per call, and \p Check on its result once its clock stops.
std::vector<Op> timedLoop(size_t N, double Seconds,
                          const std::function<void(size_t)> &Body,
                          const std::function<void(size_t)> &Check) {
  std::vector<Op> Ops;
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; secondsSince(Start) < Seconds; I = (I + 1) % N) {
    Op X;
    Clock::time_point T0 = Clock::now();
    Body(I);
    X.LatencyMs = secondsSince(T0) * 1e3;
    X.DoneS = secondsSince(Start);
    Ops.push_back(X);
    Check(I);
  }
  return Ops;
}

/// Sets what each operation of \p Ops delivered: \p Verdicts verdicts
/// over \p Programs programs (or logs), input I % N's \p Bytes.
void weigh(std::vector<Op> &Ops, double Verdicts, double Programs,
           const std::vector<double> &Bytes, size_t N) {
  for (size_t I = 0; I < Ops.size(); ++I) {
    Ops[I].Verdicts = Verdicts;
    Ops[I].Programs = Programs;
    Ops[I].Bytes = Bytes[I % N];
  }
}

//===----------------------------------------------------------------------===//
// relaxed_sweep
//===----------------------------------------------------------------------===//

struct RelaxedRef {
  std::set<Behaviour> Sc, Tso, Pso;
  uint64_t ScStates = 0, BufferedStates = 0; ///< oracle visits
  bool Complete = false;
};

struct RelaxedResult {
  std::set<Behaviour> Sc, Tso, Pso;
  uint64_t ExploreStates = 0, ScStates = 0, BufferedStates = 0;
};

/// relaxed_sweep inputs: this many programs from the first
/// RelaxedCandidates candidates, each with a seed-machine (TSO + PSO)
/// state count in [MinBandStates, MaxBandStates].
constexpr size_t RelaxedPrograms = 32;
constexpr size_t RelaxedCandidates = 2000;
constexpr uint64_t MinBandStates = 8000;
constexpr uint64_t MaxBandStates = 16000;

/// The reference behaviours of \p P; Complete only when every oracle
/// search finished and the seed machines stayed within MaxBandStates.
RelaxedRef relaxedReference(const Program &P) {
  RelaxedRef Ref;
  TsoLimits L;
  L.ExhaustiveOracle = true;
  L.MaxVisited = MaxBandStates;
  ExecStats TsoS, PsoS;
  Ref.Tso = tsoBehaviours(P, L, &TsoS);
  if (TsoS.Truncated)
    return Ref;
  L.MaxVisited = MaxBandStates - TsoS.Visited;
  Ref.Pso = psoBehaviours(P, L, &PsoS);
  if (PsoS.Truncated)
    return Ref;
  ExploreStats XS;
  Traceset TS = programTraceset(P, defaultDomainFor(P, 2), {}, &XS);
  EnumerationLimits EL;
  EL.ExhaustiveOracle = true;
  EnumerationStats ES;
  Ref.Sc = collectBehaviours(TS, EL, &ES);
  Ref.ScStates = ES.Visited;
  Ref.BufferedStates = TsoS.Visited + PsoS.Visited;
  Ref.Complete = !XS.Truncated && !ES.Truncated;
  return Ref;
}

RelaxedResult relaxedOnce(const Program &P, unsigned Workers, Tracer *T,
                          uint64_t Id) {
  RelaxedResult R;
  auto Span = [&](const char *Name, int64_t Parent) {
    return T ? T->begin(Name, Id, Parent) : -1;
  };
  auto End = [&](int64_t S) {
    if (T)
      T->end(S);
  };
  int64_t Root = Span("program", -1);
  ExploreLimits XL;
  XL.Workers = Workers;
  ExploreStats XS;
  int64_t S = Span("lang.explore", Root);
  Traceset TS = programTraceset(P, defaultDomainFor(P, 2), XL, &XS);
  End(S);
  EnumerationLimits EL;
  EL.Workers = Workers;
  EnumerationStats ES;
  S = Span("trace.enumerate", Root);
  R.Sc = collectBehaviours(TS, EL, &ES);
  End(S);
  TsoLimits L;
  L.Workers = Workers;
  ExecStats TsoS, PsoS;
  S = Span("tso.tso", Root);
  R.Tso = tsoBehaviours(P, L, &TsoS);
  End(S);
  S = Span("tso.pso", Root);
  R.Pso = psoBehaviours(P, L, &PsoS);
  End(S);
  End(Root);
  R.ExploreStates = XS.Visited;
  R.ScStates = ES.Visited;
  R.BufferedStates = TsoS.Visited + PsoS.Visited;
  return R;
}

} // namespace

Outcome runRelaxedSweep(const RunConfig &C) {
  Outcome O;
  const unsigned W = C.Nproc;
  // Prep: candidate programs and their references from the seed machines
  // and the ExhaustiveOracle enumerator. The sweep keeps, in seed order,
  // the first candidates whose seed-machine state count (TSO + PSO) lies
  // in a fixed band: big enough that forking matters, small enough that
  // one program cannot dominate a run, so seeds differ in inputs but not
  // in cost.
  std::vector<std::string> Cand = relaxedPrograms(C.Seed, RelaxedCandidates);
  std::vector<std::string> Paths;
  std::vector<RelaxedRef> Refs;
  size_t Examined = 0;
  for (size_t Base = 0; Base < Cand.size() && Refs.size() < RelaxedPrograms;
       Base += 64) {
    size_t N = std::min<size_t>(64, Cand.size() - Base);
    std::vector<RelaxedRef> Batch(N);
    parallelFor(N, W, [&](size_t I) {
      Batch[I] = relaxedReference(*parseProgram(Cand[Base + I]).Prog);
    });
    for (size_t I = 0; I < N && Refs.size() < RelaxedPrograms; ++I) {
      Examined = Base + I + 1;
      if (!Batch[I].Complete || Batch[I].BufferedStates < MinBandStates)
        continue;
      Paths.push_back(C.RunDir + "/p" + std::to_string(Refs.size()) +
                      ".tsl");
      writeFile(Paths.back(), Cand[Base + I]);
      Refs.push_back(std::move(Batch[I]));
    }
  }
  if (Refs.size() < RelaxedPrograms)
    throw std::runtime_error("relaxed_sweep: too few programs in the band");
  resetPeakRss();

  // Set-up: an engine process starting and parsing the program files.
  for (unsigned Round = 0; Round < SetupRepeats; ++Round)
    O.SetupS.push_back(timeEngineStart(C.SelfExe, "programs", Paths));
  std::vector<Program> Progs;
  std::vector<double> Bytes;
  for (const std::string &Path : Paths) {
    std::string Text = readFile(Path);
    Bytes.push_back(Text.size());
    Progs.push_back(*parseProgram(Text).Prog);
  }

  RelaxedResult Last;
  auto Verify = [&](size_t I) {
    for (bool Ok : {Last.Sc == Refs[I].Sc, Last.Tso == Refs[I].Tso,
                    Last.Pso == Refs[I].Pso})
      account(O, Ok ? Check::Decided : Check::Mismatch);
  };
  StealMonitor Steal;
  O.Ops = timedLoop(
      Progs.size(), C.Trace ? C.Seconds / 2 : C.Seconds,
      [&](size_t I) { Last = relaxedOnce(Progs[I], W, nullptr, I); }, Verify);
  O.Steal = Steal.finish();
  weigh(O.Ops, 3, 1, Bytes, Progs.size());

  if (C.Trace) {
    Tracer T;
    uint64_t Explore = 0, Sc = 0, Buffered = 0, Runs = 0, Id = 0;
    std::vector<Op> Traced = timedLoop(
        Progs.size(), C.Seconds / 2,
        [&](size_t I) { Last = relaxedOnce(Progs[I], W, &T, Id++); },
        [&](size_t I) {
          Verify(I);
          Explore += Last.ExploreStates;
          Sc += Last.ScStates;
          Buffered += Last.BufferedStates;
          ++Runs;
        });
    for (size_t I = 0; I < Paths.size(); ++I) {
      Tracer::Scope S(T, "lang.parse", I);
      parseProgram(readFile(Paths[I]));
    }
    // The same programs once at Workers = 1 and once at Workers = nproc.
    auto Pass = [&](unsigned Workers) {
      Clock::time_point T0 = Clock::now();
      for (size_t I = 0; I < Progs.size(); ++I)
        relaxedOnce(Progs[I], Workers, nullptr, I);
      return secondsSince(T0);
    };
    double T1 = Pass(1), TN = Pass(W);
    uint64_t OracleSc = 0, OracleBuffered = 0, CycleSc = 0, CycleBuf = 0;
    for (size_t I = 0; I < Progs.size(); ++I) {
      OracleSc += Refs[I].ScStates;
      OracleBuffered += Refs[I].BufferedStates;
      RelaxedResult R = relaxedOnce(Progs[I], 1, nullptr, I);
      CycleSc += R.ScStates;
      CycleBuf += R.BufferedStates;
    }
    std::map<std::string, Tracer::Aggregate> Agg = T.byName();
    double Div = Runs ? static_cast<double>(Runs) : 1;
    setLayer(O, "lang.parse_us", Agg["lang.parse"].meanUs());
    setLayer(O, "lang.explore_us", Agg["lang.explore"].meanUs());
    setLayer(O, "lang.explore_states", Explore / Div);
    setLayer(O, "trace.enumerate_us", Agg["trace.enumerate"].meanUs());
    setLayer(O, "trace.enumerate_states", Sc / Div);
    setLayer(O, "trace.por_ratio",
             OracleSc ? static_cast<double>(CycleSc) / OracleSc : 0);
    setLayer(O, "tso.tso_us", Agg["tso.tso"].meanUs());
    setLayer(O, "tso.pso_us", Agg["tso.pso"].meanUs());
    setLayer(O, "tso.states", Buffered / Div);
    setLayer(O, "tso.por_ratio",
             OracleBuffered ? static_cast<double>(CycleBuf) / OracleBuffered
                            : 0);
    setLayer(O, "support.parallel_efficiency", T1 / TN / W);
    setLayer(O, "tracing.overhead_us",
             (medianLatencyMs(Traced) - medianLatencyMs(O.Ops)) * 1e3);
    T.write(C.OutDir + "/" + C.Workload + "-seed" + std::to_string(C.Seed) +
            "-spans.jsonl");
  }
  O.PeakRssMb = peakRssMb();
  O.Notes.push_back("load: " + std::to_string(Progs.size()) +
                    " programs (of " + std::to_string(Examined) +
                    " candidates) round-robin, Workers=" + std::to_string(W));
  return O;
}

//===----------------------------------------------------------------------===//
// racelog_scan
//===----------------------------------------------------------------------===//

namespace {

/// racelog_scan inputs: sets of one race-free, one mixed and one
/// lock-heavy Synth log.
constexpr size_t LogsPerSet = 3;
constexpr size_t LogSets = 2;
constexpr uint64_t EventsPerLog = 1u << 19;

/// Same verdict, event count, racy-location count and races. A race is
/// compared on (address, event, thread, write): when a write races with
/// several earlier reads, the epoch engine and the oracle may name
/// different ones as the prior access (PrevTid), and both are right.
bool sameReport(const racelog::RaceLogReport &A,
                const racelog::RaceLogReport &B) {
  auto Key = [](const racelog::RaceRecord &R) {
    return std::make_tuple(R.Addr, R.EventIndex, R.Tid, R.Write);
  };
  if (!A.FormatOk || !B.FormatOk || A.Races.size() != B.Races.size() ||
      A.Stats.RacyLocations != B.Stats.RacyLocations ||
      A.Stats.Events != B.Stats.Events || A.verdict() != B.verdict())
    return false;
  for (size_t I = 0; I < A.Races.size(); ++I)
    if (Key(A.Races[I]) != Key(B.Races[I]))
      return false;
  return true;
}

} // namespace

Outcome runRacelogScan(const RunConfig &C) {
  Outcome O;
  const unsigned W = C.Nproc;
  std::vector<std::string> Logs =
      raceLogs(C.Seed, LogSets * LogsPerSet, EventsPerLog);
  std::vector<racelog::RaceLogReport> Refs(Logs.size());
  // References from the full-vector-clock oracle engine.
  parallelFor(Logs.size(), W, [&](size_t I) {
    racelog::RaceLogOptions Oracle;
    Oracle.Epochs = false;
    Refs[I] = racelog::scanRaceLog(Logs[I], Oracle);
  });
  std::vector<std::string> Paths;
  for (size_t I = 0; I < Logs.size(); ++I) {
    Paths.push_back(C.RunDir + "/log" + std::to_string(I) + ".tsrl");
    writeFile(Paths.back(), Logs[I]);
  }
  Logs.clear();
  resetPeakRss();

  // Set-up: an engine process starting and reading the log files.
  for (unsigned Round = 0; Round < SetupRepeats; ++Round)
    O.SetupS.push_back(timeEngineStart(C.SelfExe, "logs", Paths));
  for (const std::string &Path : Paths)
    Logs.push_back(readFile(Path));

  // One operation scans one set: a race-free, a mixed and a lock-heavy
  // log (raceLogs cycles the kinds), so every operation does the same mix.
  const size_t Sets = Logs.size() / LogsPerSet;
  racelog::RaceLogOptions Opts;
  Opts.Shards = W;
  Opts.Workers = W;
  racelog::RaceLogReport Last[LogsPerSet];
  auto Verify = [&](size_t Set) {
    for (size_t K = 0; K < LogsPerSet; ++K) {
      const racelog::RaceLogReport &R = Last[K];
      account(O, !sameReport(R, Refs[Set * LogsPerSet + K]) ? Check::Mismatch
                 : R.verdict() == VerdictKind::Unknown ? Check::Undecided
                                                       : Check::Decided);
    }
  };
  auto Scan = [&](size_t Set, Tracer *T, uint64_t Id) {
    for (size_t K = 0; K < LogsPerSet; ++K) {
      int64_t S = T ? T->begin("racelog.scan", Id) : -1;
      Last[K] = racelog::scanRaceLog(Logs[Set * LogsPerSet + K], Opts);
      if (T)
        T->end(S);
    }
  };
  std::vector<double> Bytes(Sets);
  for (size_t I = 0; I < Logs.size(); ++I)
    Bytes[I / LogsPerSet] += static_cast<double>(Logs[I].size());
  StealMonitor Steal;
  O.Ops = timedLoop(
      Sets, C.Trace ? C.Seconds / 2 : C.Seconds,
      [&](size_t Set) { Scan(Set, nullptr, Set); }, Verify);
  O.Steal = Steal.finish();
  weigh(O.Ops, LogsPerSet, LogsPerSet, Bytes, Sets);

  if (C.Trace) {
    Tracer T;
    uint64_t Events = 0, Shares = 0, Runs = 0, Id = 0;
    std::vector<Op> Traced = timedLoop(
        Sets, C.Seconds / 2, [&](size_t Set) { Scan(Set, &T, Id++); },
        [&](size_t Set) {
          Verify(Set);
          for (const racelog::RaceLogReport &R : Last) {
            Events += R.Stats.Events;
            Shares += R.Stats.ReadShares;
            ++Runs;
          }
        });
    auto Pass = [&](unsigned Width) {
      racelog::RaceLogOptions P;
      P.Shards = Width;
      P.Workers = Width;
      Clock::time_point T0 = Clock::now();
      for (const std::string &L : Logs)
        racelog::scanRaceLog(L, P);
      return secondsSince(T0);
    };
    double T1 = Pass(1), TN = Pass(W);
    setLayer(O, "racelog.scan_us", T.byName()["racelog.scan"].meanUs());
    setLayer(O, "racelog.events", Runs ? static_cast<double>(Events) / Runs
                                       : 0);
    setLayer(O, "racelog.read_share_ratio",
             Events ? static_cast<double>(Shares) / Events : 0);
    setLayer(O, "racelog.shard_efficiency", T1 / TN / W);
    setLayer(O, "tracing.overhead_us",
             (medianLatencyMs(Traced) - medianLatencyMs(O.Ops)) * 1e3);
    T.write(C.OutDir + "/" + C.Workload + "-seed" + std::to_string(C.Seed) +
            "-spans.jsonl");
  }
  O.PeakRssMb = peakRssMb();
  O.Notes.push_back("load: " + std::to_string(Sets) + " sets of " +
                    std::to_string(LogsPerSet) +
                    " logs round-robin, Shards=Workers=" + std::to_string(W));
  return O;
}

} // namespace tsbench
