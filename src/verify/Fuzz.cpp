#include "verify/Fuzz.h"

#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "support/ThreadPool.h"
#include "verify/BehaviourCache.h"
#include "verify/Theorems.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

using namespace tracesafe;

namespace {

/// SplitMix-style mixing so per-program sub-seeds are decorrelated.
uint64_t mixSeeds(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9E3779B97F4A7C15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// A deterministic transformation of a program: the same function is used
/// on the generated program and on every shrink candidate, so the failure
/// predicate stays meaningful as the program gets smaller.
using TransformFn = std::function<std::optional<Program>(const Program &)>;

Program applySafeChain(const Program &P, uint64_t ChainSeed,
                       size_t MaxSteps) {
  Rng R(ChainSeed);
  return randomChain(P, RuleSet::all(), MaxSteps, R).Result;
}

std::string drfDetail(const DrfGuaranteeReport &R) {
  if (!R.TransformedDrf)
    return "transformation introduced a data race into a DRF program";
  if (!R.BehavioursPreserved)
    return "transformation introduced a new behaviour";
  return "DRF guarantee violated";
}

std::string thinAirDetail(const ThinAirReport &R) {
  if (R.TransformedOutputs)
    return "transformed program outputs the fresh constant " +
           std::to_string(R.Constant);
  return "transformed traceset has an out-of-thin-air origin for " +
         std::to_string(R.Constant);
}

/// Satellite check: re-walk a safe chain verifying Lemma 4/5 per step —
/// each successor traceset must be a semantic elimination (E rules) or a
/// reordering of an elimination (R rules) of its predecessor. Fails on the
/// first failing step; Unknown when any step was truncated.
CheckVerdict semanticChainVerdict(const Program &Orig,
                                  const TransformChain &Chain, Budget &B) {
  ExploreLimits Explore;
  Explore.Shared = &B;
  std::vector<Value> Domain = defaultDomainFor(Orig, 2);
  Program Cur = Orig;
  ExploreStats Stats;
  // Tracesets come from the cross-query cache: chain walks revisit the
  // same intermediate programs constantly (every chain prefix, every
  // shrink candidate re-check), and the cache replays the recorded cost
  // against B so a hit truncates a tight budget exactly where
  // recomputation would.
  std::shared_ptr<const Traceset> CurSet =
      BehaviourCache::global().tracesetFor(Cur, Domain, Explore, &Stats);
  CheckVerdict Out = CheckVerdict::Holds;
  for (const RewriteSite &Site : Chain.Steps) {
    Program Next = applyRewrite(Cur, Site);
    ExploreStats NextStats;
    std::shared_ptr<const Traceset> NextSet =
        BehaviourCache::global().tracesetFor(Next, Domain, Explore,
                                             &NextStats);
    CheckVerdict V;
    if (Stats.Truncated || NextStats.Truncated)
      V = CheckVerdict::Unknown;
    else if (isEliminationRule(Site.Rule))
      V = checkElimination(*CurSet, *NextSet).Verdict;
    else
      V = checkEliminationThenReordering(*CurSet, *NextSet).Verdict;
    if (V == CheckVerdict::Fails)
      return CheckVerdict::Fails;
    if (V == CheckVerdict::Unknown)
      Out = CheckVerdict::Unknown;
    Cur = std::move(Next);
    CurSet = std::move(NextSet);
    Stats = NextStats;
  }
  return Out;
}

/// Definitive re-check of one property on a shrink candidate, under a
/// fixed one-shot budget. Unknown counts as "does not reproduce" so budget
/// noise cannot steer the reduction toward expensive programs. For the
/// semantic-step property the chain is regenerated from \p ChainSeed on
/// the candidate itself.
bool propertyViolated(const Program &Orig, const Program &Transformed,
                      const std::string &Property, const BudgetSpec &Spec,
                      uint64_t ChainSeed, size_t MaxChainSteps,
                      const CancelToken *Cancel) {
  Budget B(Spec, Cancel);
  if (Property == "semantic-step") {
    Rng R(ChainSeed);
    TransformChain C = randomChain(Orig, RuleSet::all(), MaxChainSteps, R);
    return semanticChainVerdict(Orig, C, B) == CheckVerdict::Fails;
  }
  ExecLimits Exec;
  Exec.Shared = &B;
  if (Property == "drf-guarantee")
    return checkDrfGuarantee(Orig, Transformed, Exec).outcome() ==
           GuaranteeOutcome::Violated;
  ExploreLimits Explore;
  Explore.Shared = &B;
  return checkThinAir(Orig, Transformed, freshConstantFor(Orig), Exec,
                      Explore)
             .outcome() == GuaranteeOutcome::Violated;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// Checkpoint journal: a RecordLog (CheckpointFormat) with one record per
// finished program index. A record is the campaign's (seed, programs),
// the index, its counters and its failures; the CRC makes each record
// atomic, so a crash mid-append loses only that index, which a resume
// simply re-runs.
//===--------------------------------------------------------------------===//

/// One finished program index's contribution to the campaign report.
/// RunOne accumulates into this, and exactly this is journaled, so a
/// resumed index merges identically to a re-run one.
struct IndexRecord {
  uint64_t Checks = 0;
  uint64_t Proved = 0;
  uint64_t Unknown = 0;
  uint64_t Escalated = 0;
  bool Injected = false;
  uint64_t Faulted = 0;
  uint64_t Degraded = 0;
  std::vector<FuzzFailure> Failures;
};

std::string encodeRecord(uint64_t Seed, uint64_t Programs, uint64_t Idx,
                         const IndexRecord &R) {
  std::string Out;
  for (uint64_t V : std::initializer_list<uint64_t>{
           Seed, Programs, Idx, R.Checks, R.Proved, R.Unknown, R.Escalated,
           R.Faulted, R.Degraded, R.Failures.size()})
    putU64(Out, V);
  putU8(Out, R.Injected);
  for (const FuzzFailure &F : R.Failures) {
    putU8(Out, F.Injected);
    for (uint64_t V : std::initializer_list<uint64_t>{
             F.OriginalStmts, F.ReducedStmts, F.ShrinkRounds,
             F.ShrinkCandidates, F.ChainSteps, F.ReducedChainSteps})
      putU64(Out, V);
    for (const std::string *S : {&F.Property, &F.ReproPath, &F.Detail,
                                 &F.ReducedChain, &F.OriginalSource,
                                 &F.ReducedSource})
      putStr(Out, *S);
  }
  return Out;
}

/// Decodes one record of the (Seed, Programs) campaign; false for a
/// malformed record or one of another campaign. Reader failures are
/// sticky, so the fields are read unchecked and done() decides.
bool decodeRecord(std::string_view P, uint64_t Seed, uint64_t Programs,
                  uint64_t &Idx, IndexRecord &R) {
  PayloadReader Rd(P);
  uint64_t S = 0, N = 0, Count = 0;
  uint8_t Inj = 0;
  if (!Rd.u64(S) || !Rd.u64(N) || !Rd.u64(Idx) || S != Seed ||
      N != Programs || Idx >= Programs)
    return false;
  for (uint64_t *V : {&R.Checks, &R.Proved, &R.Unknown, &R.Escalated,
                      &R.Faulted, &R.Degraded, &Count})
    Rd.u64(*V);
  Rd.u8(Inj);
  R.Injected = Inj != 0;
  for (uint64_t I = 0; I < Count && Rd.u8(Inj); ++I) {
    FuzzFailure F;
    uint64_t V[6] = {};
    for (uint64_t &X : V)
      Rd.u64(X);
    for (std::string *Str : {&F.Property, &F.ReproPath, &F.Detail,
                             &F.ReducedChain, &F.OriginalSource,
                             &F.ReducedSource})
      Rd.str(*Str);
    F.ProgramIndex = Idx;
    F.Injected = Inj != 0;
    F.OriginalStmts = V[0];
    F.ReducedStmts = V[1];
    F.ShrinkRounds = static_cast<unsigned>(V[2]);
    F.ShrinkCandidates = V[3];
    F.ChainSteps = V[4];
    F.ReducedChainSteps = V[5];
    R.Failures.push_back(std::move(F));
  }
  return Rd.done();
}

/// The campaign's checkpoint writer.
class Journal {
public:
  /// Opens the checkpoint at \p Path. A file that is not a checkpoint
  /// (another format's log, or not a log at all) is refused untouched, as
  /// the daemon refuses a foreign journal or cache file. With \p Resume,
  /// every valid record of the (Seed, Programs) campaign is first loaded
  /// into \p Resumed (an index recorded twice keeps the later record;
  /// another campaign's records contribute nothing). The file is then
  /// replaced by a log of exactly those records (RecordLog::rewrite: a
  /// crash mid-compaction leaves the old journal, never a shorter one)
  /// and kept open for the fresh records. False with \p Err set on
  /// refusal or I/O failure.
  bool open(const std::string &Path, uint64_t Seed, uint64_t Programs,
            bool Resume, std::map<uint64_t, IndexRecord> &Resumed,
            std::string &Err) {
    this->Seed = Seed;
    this->Programs = Programs;
    RecordLogInfo Info =
        RecordLog::load(Path, CheckpointFormat, [&](std::string_view P) {
          uint64_t Idx = 0;
          IndexRecord R;
          if (Resume && decodeRecord(P, Seed, Programs, Idx, R))
            Resumed[Idx] = std::move(R);
        });
    if (!Info.HeaderOk) {
      Err = Path + ": " + Info.Error;
      return false;
    }
    std::vector<std::string> Records;
    for (const auto &[Idx, R] : Resumed)
      Records.push_back(encodeRecord(Seed, Programs, Idx, R));
    return Log.rewrite(Path, Records, Err);
  }

  void record(uint64_t Idx, const IndexRecord &R) {
    if (Log.isOpen())
      Log.append(encodeRecord(Seed, Programs, Idx, R));
  }

private:
  RecordLog Log{CheckpointFormat};
  uint64_t Seed = 0, Programs = 0;
};

//===--------------------------------------------------------------------===//
// Coverage-guided seed scheduling.
//
// Program indices are grouped into epochs of SchedulerEpoch. Inside epoch
// 0 the generator discipline rotates uniformly (exactly the seed
// campaign's schedule); from epoch 1 on it is a seeded weighted pick,
// with each discipline bucket weighted by how "interesting" its programs
// of *earlier* epochs were (Unknowns, escalations, and uninjected repros
// score; proved-everywhere programs do not). The campaign loops place a
// completion barrier at every epoch boundary, so the weights for epoch k
// are a pure function of a deterministic record set — the report stays
// identical for every worker count, and a resumed campaign recomputes
// the same schedule from its journal.
//===--------------------------------------------------------------------===//

constexpr uint64_t SchedulerEpoch = 32;

constexpr std::array<GenDiscipline, 4> SchedulerBuckets = {
    GenDiscipline::Racy, GenDiscipline::LockDiscipline,
    GenDiscipline::VolatileLocations, GenDiscipline::Mixed};

class SeedScheduler {
public:
  explicit SeedScheduler(uint64_t Seed) : Seed(Seed) {}

  GenDiscipline disciplineFor(uint64_t I) {
    std::lock_guard<std::mutex> Lock(M);
    return SchedulerBuckets[bucketLocked(I)];
  }

  /// Folds a committed record into its index's bucket. Placeholder
  /// records (Checks == 0: the index faulted before running any check)
  /// are ignored — in the run that faulted they contributed nothing to
  /// the weights either, so ignoring them keeps a resumed campaign's
  /// schedule identical to the original's.
  void observe(uint64_t I, const IndexRecord &R) {
    if (R.Checks == 0)
      return;
    uint64_t Score = R.Unknown + R.Escalated;
    for (const FuzzFailure &F : R.Failures)
      if (!F.Injected)
        Score += 4;
    std::lock_guard<std::mutex> Lock(M);
    Observed[I] = Score;
  }

private:
  struct Bucket {
    uint64_t Runs = 0;
    uint64_t Score = 0;
  };

  unsigned bucketLocked(uint64_t I) {
    uint64_t E = I / SchedulerEpoch;
    if (E == 0)
      return static_cast<unsigned>(I % SchedulerBuckets.size());
    const std::array<uint64_t, 4> &W = weightsLocked(E);
    uint64_t Total = W[0] + W[1] + W[2] + W[3];
    uint64_t R = mixSeeds(Seed ^ 0x5EEDC0DEULL, I) % Total;
    for (unsigned B = 0; B + 1 < W.size(); ++B) {
      if (R < W[B])
        return B;
      R -= W[B];
    }
    return static_cast<unsigned>(W.size()) - 1;
  }

  /// Weights for epoch \p E (E >= 1), built lazily in epoch order:
  /// Weights[K] covers epoch K+1 and is computed by folding epoch K's
  /// observed records into the cumulative bucket aggregate. The fold
  /// calls bucketLocked for epoch-K indices, whose weights are already
  /// built (or epoch 0's rotation), so the recursion is well-founded.
  const std::array<uint64_t, 4> &weightsLocked(uint64_t E) {
    while (Weights.size() < E) {
      uint64_t Prev = Weights.size();
      uint64_t Begin = Prev * SchedulerEpoch;
      for (uint64_t I = Begin; I < Begin + SchedulerEpoch; ++I) {
        auto It = Observed.find(I);
        if (It == Observed.end())
          continue;
        Bucket &B = Agg[bucketLocked(I)];
        ++B.Runs;
        B.Score += It->second;
      }
      std::array<uint64_t, 4> W;
      for (unsigned B = 0; B < W.size(); ++B)
        W[B] = 1 + (Agg[B].Runs ? 16 * Agg[B].Score / Agg[B].Runs : 0);
      Weights.push_back(W);
    }
    return Weights[E - 1];
  }

  const uint64_t Seed;
  std::mutex M;
  std::map<uint64_t, uint64_t> Observed; ///< index -> interest score
  std::array<Bucket, 4> Agg;             ///< epochs folded so far
  std::vector<std::array<uint64_t, 4>> Weights;
};

void mergeIndex(FuzzReport &Into, const IndexRecord &R) {
  ++Into.ProgramsRun;
  Into.ChecksRun += R.Checks;
  Into.ProvedQueries += R.Proved;
  Into.UnknownQueries += R.Unknown;
  Into.EscalatedQueries += R.Escalated;
  Into.InjectedRuns += R.Injected ? 1 : 0;
  Into.FaultedQueries += R.Faulted;
  Into.DegradedQueries += R.Degraded;
  for (const FuzzFailure &F : R.Failures)
    Into.Failures.push_back(F);
}

} // namespace

uint64_t FuzzReport::uninjectedFailures() const {
  uint64_t N = 0;
  for (const FuzzFailure &F : Failures)
    if (!F.Injected)
      ++N;
  return N;
}

std::string FuzzReport::summary() const {
  std::string Out = "fuzz: " + std::to_string(ProgramsRun) + " programs, " +
                    std::to_string(ChecksRun) + " checks (" +
                    std::to_string(ProvedQueries) + " proved, " +
                    std::to_string(UnknownQueries) + " unknown, " +
                    std::to_string(EscalatedQueries) + " escalated), " +
                    std::to_string(Failures.size()) + " failures (" +
                    std::to_string(uninjectedFailures()) + " uninjected, " +
                    std::to_string(InjectedRuns) + " injected runs), " +
                    std::to_string(ElapsedMs) + "ms";
  if (FaultedQueries || DegradedQueries)
    Out += ", " + std::to_string(FaultedQueries) + " faulted/" +
           std::to_string(DegradedQueries) + " degraded";
  if (SkippedFromCheckpoint)
    Out += ", " + std::to_string(SkippedFromCheckpoint) + " resumed";
  if (CacheHits || CacheMisses)
    Out += ", " + std::to_string(CacheHits) + "/" +
           std::to_string(CacheHits + CacheMisses) + " cache hits";
  if (DeadlineHit)
    Out += " [deadline hit]";
  if (Cancelled)
    Out += " [cancelled]";
  return Out;
}

std::string FuzzReport::toJson(bool IncludeVolatile) const {
  std::string Out = "{\n";
  auto Field = [&](const std::string &K, const std::string &V, bool Comma) {
    Out += "  \"" + K + "\": " + V + (Comma ? ",\n" : "\n");
  };
  Field("programs_run", std::to_string(ProgramsRun), true);
  Field("checks_run", std::to_string(ChecksRun), true);
  Field("proved", std::to_string(ProvedQueries), true);
  Field("unknown", std::to_string(UnknownQueries), true);
  Field("escalated", std::to_string(EscalatedQueries), true);
  Field("injected_runs", std::to_string(InjectedRuns), true);
  Field("faulted", std::to_string(FaultedQueries), true);
  Field("degraded", std::to_string(DegradedQueries), true);
  Field("uninjected_failures", std::to_string(uninjectedFailures()), true);
  Field("deadline_hit", DeadlineHit ? "true" : "false", true);
  if (IncludeVolatile) {
    Field("cancelled", Cancelled ? "true" : "false", true);
    Field("skipped_from_checkpoint", std::to_string(SkippedFromCheckpoint),
          true);
    Field("behaviour_cache_hits", std::to_string(CacheHits), true);
    Field("behaviour_cache_misses", std::to_string(CacheMisses), true);
    Field("elapsed_ms", std::to_string(ElapsedMs), true);
  }
  Out += "  \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I) {
    const FuzzFailure &F = Failures[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"program_index\": " + std::to_string(F.ProgramIndex);
    Out += ", \"property\": \"" + jsonEscape(F.Property) + "\"";
    Out += ", \"injected\": " + std::string(F.Injected ? "true" : "false");
    Out += ", \"detail\": \"" + jsonEscape(F.Detail) + "\"";
    Out += ", \"original_stmts\": " + std::to_string(F.OriginalStmts);
    Out += ", \"reduced_stmts\": " + std::to_string(F.ReducedStmts);
    Out += ", \"shrink_rounds\": " + std::to_string(F.ShrinkRounds);
    Out += ", \"chain_steps\": " + std::to_string(F.ChainSteps);
    Out += ", \"reduced_chain_steps\": " +
           std::to_string(F.ReducedChainSteps);
    Out += ", \"reduced_chain\": \"" + jsonEscape(F.ReducedChain) + "\"";
    Out += ", \"repro_path\": \"" + jsonEscape(F.ReproPath) + "\"";
    Out += ", \"reduced_source\": \"" + jsonEscape(F.ReducedSource) + "\"";
    Out += "}";
  }
  Out += Failures.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

FuzzReport tracesafe::runFuzz(const FuzzOptions &Options) {
  FuzzReport Report;
  auto Start = std::chrono::steady_clock::now();
  auto ElapsedMs = [&]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  auto CancelledNow = [&]() {
    return Options.Cancel && Options.Cancel->requested();
  };

  EscalationPolicy Esc = Options.Escalation;
  Esc.Cancel = Options.Cancel;

  SeedScheduler Sched(Options.Seed);
  BehaviourCache::CacheStats Cache0 = BehaviourCache::global().stats();

  // Budget for shrink-predicate re-checks: one mid-ladder rung.
  BudgetSpec ShrinkCheckSpec =
      Options.Escalation.Initial.scaled(Options.Escalation.Growth,
                                        Options.Escalation.Ceiling);

  auto Track = [](IndexRecord &R, VerdictKind Kind, size_t Attempts) {
    ++R.Checks;
    if (Attempts > 1)
      ++R.Escalated;
    if (Kind == VerdictKind::Unknown)
      ++R.Unknown;
    if (Kind == VerdictKind::Proved)
      ++R.Proved;
  };

  auto RecordFailure = [&](IndexRecord &Rec, uint64_t Index,
                           const std::string &Property, bool Injected,
                           std::string Detail, const Program &Orig,
                           const TransformFn &Transform, uint64_t ChainSeed) {
    FuzzFailure F;
    F.ProgramIndex = Index;
    F.Property = Property;
    F.Injected = Injected;
    F.Detail = std::move(Detail);
    F.OriginalSource = printProgram(Orig);
    F.OriginalStmts = countStatements(Orig);

    FailurePredicate Pred = [&](const Program &Q) {
      if (Q.threadCount() == 0)
        return false;
      std::optional<Program> TQ = Transform(Q);
      if (!TQ)
        return false;
      return propertyViolated(Q, *TQ, Property, ShrinkCheckSpec, ChainSeed,
                              Options.MaxChainSteps, Options.Cancel);
    };
    ShrinkResult SR = shrinkProgram(Orig, Pred, Options.Shrink);
    F.ReducedSource = printProgram(SR.Reduced);
    F.ReducedStmts = countStatements(SR.Reduced);
    F.ShrinkRounds = SR.Rounds;
    F.ShrinkCandidates = SR.CandidatesTried;

    if (!Injected) {
      // Satellite: minimise the rewrite chain too. The chain the failure
      // predicate used on the reduced program is regenerated from the
      // seed, then its step list is delta-debugged to a subsequence that
      // still reproduces when replayed with applyChain.
      Rng CR(ChainSeed);
      TransformChain Chain =
          randomChain(SR.Reduced, RuleSet::all(), Options.MaxChainSteps, CR);
      F.ChainSteps = Chain.Steps.size();
      ChainFailurePredicate CPred =
          [&](const std::vector<RewriteSite> &Steps) {
            std::optional<Program> TQ = applyChain(SR.Reduced, Steps);
            if (!TQ)
              return false;
            if (Property == "semantic-step") {
              Budget B(ShrinkCheckSpec, Options.Cancel);
              TransformChain C{std::move(*TQ), Steps};
              return semanticChainVerdict(SR.Reduced, C, B) ==
                     CheckVerdict::Fails;
            }
            return propertyViolated(SR.Reduced, *TQ, Property,
                                    ShrinkCheckSpec, ChainSeed,
                                    Options.MaxChainSteps, Options.Cancel);
          };
      std::vector<RewriteSite> Final = Chain.Steps;
      if (!Chain.Steps.empty() && CPred(Chain.Steps)) {
        ChainShrinkResult CS =
            shrinkChain(Chain.Steps, CPred, Options.Shrink);
        Final = CS.Steps;
      }
      F.ReducedChainSteps = Final.size();
      for (const RewriteSite &S : Final) {
        if (!F.ReducedChain.empty())
          F.ReducedChain += "; ";
        F.ReducedChain += S.str();
      }
    }

    if (!Options.ReproDir.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Options.ReproDir, Ec);
      std::string Path = Options.ReproDir + "/repro_" +
                         std::to_string(Index) + "_" + Property + ".tsl";
      std::ofstream Os(Path);
      if (Os) {
        Os << "// tracesafe fuzz repro (minimised)\n"
           << "// property: " << Property << "\n"
           << "// run seed: " << Options.Seed
           << ", program index: " << Index << "\n"
           << "// injected unsafe pass: " << (F.Injected ? "yes" : "no")
           << "\n"
           << "// detail: " << F.Detail << "\n"
           << "// statements: " << F.OriginalStmts << " -> "
           << F.ReducedStmts << " in " << F.ShrinkRounds
           << " shrink rounds\n";
        if (!F.Injected)
          Os << "// chain: " << F.ChainSteps << " -> "
             << F.ReducedChainSteps << " steps"
             << (F.ReducedChain.empty() ? "" : ": " + F.ReducedChain)
             << "\n";
        Os << F.ReducedSource;
        F.ReproPath = Path;
      }
    }
    Rec.Failures.push_back(std::move(F));
  };

  // One fuzz iteration, accumulating into \p Rec. Everything here depends
  // only on (Options.Seed, I), so the campaign is deterministic for any
  // worker count — and a resumed index's journaled record is identical to
  // a re-run one.
  auto RunOne = [&](uint64_t I, IndexRecord &Rec) {
    uint64_t SubSeed = mixSeeds(Options.Seed, I);
    Rng R(SubSeed);

    // Vary the program shape so one run sweeps all disciplines and a mix
    // of thread counts / input use. The discipline itself is coverage-
    // guided (SeedScheduler): epoch 0 rotates uniformly, later epochs
    // weight the buckets that produced Unknowns and repros.
    GenOptions G = Options.Gen;
    G.Discipline = Sched.disciplineFor(I);
    if (I % 7 == 3)
      G.Threads = G.Threads < 3 ? G.Threads + 1 : G.Threads;
    G.AllowInput = I % 11 == 5;

    Program P = generateProgram(R, G);

    bool Injected = false;
    TransformFn Transform;
    uint64_t ChainSeed = mixSeeds(SubSeed, 0x5eed);
    if (Options.InjectUnsafe && Options.InjectEvery &&
        I % Options.InjectEvery == 0 && applyFirstUnsafe(P)) {
      Injected = true;
      Transform = [](const Program &Q) { return applyFirstUnsafe(Q); };
    } else {
      size_t MaxSteps = Options.MaxChainSteps;
      Transform = [ChainSeed, MaxSteps](const Program &Q)
          -> std::optional<Program> {
        return applySafeChain(Q, ChainSeed, MaxSteps);
      };
    }
    Rec.Injected = Injected;

    Program T = *Transform(P);

    // Degraded retry for a faulted query: the armed fault trigger was
    // consumed by the failing attempt, so one sequential re-run under the
    // escalation ceiling (minus what the attempt spent) usually produces
    // a real answer. Only EngineFault retries — cancellation must win,
    // and budget exhaustion would exhaust the smaller budget faster.
    auto FaultedReason = [](TruncationReason R2) {
      return R2 == TruncationReason::EngineFault;
    };

    Escalated<DrfGuaranteeReport> Drf = escalateDrfGuarantee(P, T, Esc);
    if (Drf.Final.isUnknown() && FaultedReason(Drf.Final.Reason)) {
      ++Rec.Faulted;
      Budget B(Options.Escalation.Ceiling, Options.Cancel);
      ExecLimits E;
      E.Shared = &B;
      DrfGuaranteeReport R2 = checkDrfGuarantee(P, T, E);
      switch (R2.outcome()) {
      case GuaranteeOutcome::Holds:
        Drf.Final = Verdict<DrfGuaranteeReport>::proved();
        ++Rec.Degraded;
        break;
      case GuaranteeOutcome::Violated:
        Drf.Final = Verdict<DrfGuaranteeReport>::refuted(std::move(R2));
        ++Rec.Degraded;
        break;
      case GuaranteeOutcome::Unknown:
        if (!FaultedReason(R2.Reason))
          ++Rec.Degraded; // Honest budget-bound Unknown, not a re-fault.
        break;
      }
    }
    Track(Rec, Drf.Final.Kind, Drf.Attempts.size());
    if (Drf.Final.isRefuted())
      RecordFailure(Rec, I, "drf-guarantee", Injected,
                    drfDetail(*Drf.Final.Witness), P, Transform, ChainSeed);

    if (Options.CheckThinAir) {
      Value C = freshConstantFor(P);
      Escalated<ThinAirReport> Ta = escalateThinAir(P, T, C, Esc);
      if (Ta.Final.isUnknown() && FaultedReason(Ta.Final.Reason)) {
        ++Rec.Faulted;
        Budget B(Options.Escalation.Ceiling, Options.Cancel);
        ExecLimits E;
        E.Shared = &B;
        ExploreLimits X;
        X.Shared = &B;
        ThinAirReport R2 = checkThinAir(P, T, C, E, X);
        switch (R2.outcome()) {
        case GuaranteeOutcome::Holds:
          Ta.Final = Verdict<ThinAirReport>::proved();
          ++Rec.Degraded;
          break;
        case GuaranteeOutcome::Violated:
          Ta.Final = Verdict<ThinAirReport>::refuted(std::move(R2));
          ++Rec.Degraded;
          break;
        case GuaranteeOutcome::Unknown:
          if (!FaultedReason(R2.Reason))
            ++Rec.Degraded;
          break;
        }
      }
      Track(Rec, Ta.Final.Kind, Ta.Attempts.size());
      if (Ta.Final.isRefuted())
        RecordFailure(Rec, I, "thin-air", Injected,
                      thinAirDetail(*Ta.Final.Witness), P, Transform,
                      ChainSeed);
    }

    if (Options.CheckSemanticSteps && !Injected) {
      // Satellite: Lemma 4/5 on every step of the safe chain, under one
      // mid-ladder budget (step checks are cheap relative to the
      // guarantee queries; escalation would triple the traceset builds).
      Rng CR(ChainSeed);
      TransformChain Chain =
          randomChain(P, RuleSet::all(), Options.MaxChainSteps, CR);
      Budget B(ShrinkCheckSpec, Options.Cancel);
      CheckVerdict V = semanticChainVerdict(P, Chain, B);
      Track(Rec,
            V == CheckVerdict::Holds    ? VerdictKind::Proved
            : V == CheckVerdict::Fails  ? VerdictKind::Refuted
                                        : VerdictKind::Unknown,
            1);
      if (V == CheckVerdict::Fails)
        RecordFailure(Rec, I, "semantic-step", false,
                      "chain step is not a semantic elimination/reordering "
                      "of its predecessor",
                      P, Transform, ChainSeed);
    }
  };

  // Resume: merge the journaled records and mark their indices done. The
  // journal is then compacted to exactly those records, in index order,
  // before fresh indices are appended after them.
  // A checkpoint that cannot be opened stops the campaign before it runs
  // anything: work that no journal records would be lost to a resume.
  std::map<uint64_t, IndexRecord> Resumed;
  Journal J;
  if (!Options.CheckpointPath.empty() &&
      !J.open(Options.CheckpointPath, Options.Seed, Options.Programs,
              Options.Resume, Resumed, Report.CheckpointError))
    return Report;

  // Completion map: true once an index's record is merged (from the
  // journal or a finished run). Drives the post-loop sweep that re-runs
  // indices lost to a drained task group.
  std::unique_ptr<std::atomic<bool>[]> Completed(
      Options.Programs ? new std::atomic<bool>[Options.Programs]
                       : nullptr);
  for (uint64_t I = 0; I < Options.Programs; ++I)
    Completed[I].store(false, std::memory_order_relaxed);

  std::mutex ReportM; // guards Report during parallel merges
  for (auto &[Idx, R] : Resumed) {
    mergeIndex(Report, R);
    Sched.observe(Idx, R);
    ++Report.SkippedFromCheckpoint;
    Completed[Idx].store(true, std::memory_order_relaxed);
  }

  // Runs index I and commits it (merge + journal). An index interrupted
  // by cancellation is discarded instead — its results are cut-short
  // noise, and discarding is what lets a resumed campaign reproduce it
  // bit-for-bit. Returns false when RunOne threw (left uncommitted for
  // the sweep).
  auto RunCommit = [&](uint64_t I, FuzzReport &Into) {
    IndexRecord Rec;
    try {
      RunOne(I, Rec);
    } catch (...) {
      return false;
    }
    if (CancelledNow())
      return true; // Discarded; the cancellation check below ends the run.
    {
      std::lock_guard<std::mutex> Lock(ReportM);
      mergeIndex(Into, Rec);
    }
    Sched.observe(I, Rec);
    J.record(I, Rec);
    Completed[I].store(true, std::memory_order_relaxed);
    return true;
  };

  if (Options.Jobs == 1) {
    for (uint64_t I = 0; I < Options.Programs; ++I) {
      if (Completed[I].load(std::memory_order_relaxed))
        continue;
      if (CancelledNow()) {
        Report.Cancelled = true;
        break;
      }
      if (Options.DeadlineMs > 0 && ElapsedMs() >= Options.DeadlineMs) {
        Report.DeadlineHit = true;
        break;
      }
      RunCommit(I, Report);
    }
    Report.Cancelled = Report.Cancelled || CancelledNow();
  } else {
    // Workers claim program indices from a shared counter, one scheduler
    // epoch at a time: the task-group wait at each epoch boundary is the
    // completion barrier the coverage-guided scheduler relies on (the
    // weights for epoch k see all of epochs < k, for every worker
    // count). Merging is per-index under a lock and failures are sorted
    // afterwards, so the output is independent of scheduling.
    unsigned Jobs = Options.Jobs == 0 ? ThreadPool::defaultWorkerCount()
                                      : Options.Jobs;
    if (Jobs > Options.Programs)
      Jobs = static_cast<unsigned>(Options.Programs ? Options.Programs : 1);
    std::unique_ptr<ThreadPool> Owned;
    ThreadPool *Pool = &ThreadPool::shared();
    if (Options.Jobs > 1) {
      Owned = std::make_unique<ThreadPool>(Jobs);
      Pool = Owned.get();
    }
    std::atomic<bool> DeadlineHit{false};
    for (uint64_t Begin = 0; Begin < Options.Programs;
         Begin += SchedulerEpoch) {
      if (CancelledNow() || DeadlineHit.load(std::memory_order_relaxed))
        break;
      uint64_t End = std::min(Begin + SchedulerEpoch, Options.Programs);
      std::atomic<uint64_t> Next{Begin};
      ThreadPool::TaskGroup G(*Pool);
      unsigned Spawn = Jobs;
      if (Spawn > End - Begin)
        Spawn = static_cast<unsigned>(End - Begin);
      for (unsigned W = 0; W < Spawn; ++W)
        G.spawn([&] {
          for (;;) {
            uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
            if (I >= End)
              return;
            if (Completed[I].load(std::memory_order_relaxed))
              continue;
            if (CancelledNow())
              return;
            if (Options.DeadlineMs > 0 &&
                ElapsedMs() >= Options.DeadlineMs) {
              DeadlineHit.store(true, std::memory_order_relaxed);
              return;
            }
            RunCommit(I, Report);
          }
        });
      G.wait();
      if (G.faulted())
        G.takeException(); // Lost indices are re-run by the sweep below.
    }
    Report.DeadlineHit = DeadlineHit.load(std::memory_order_relaxed);
    Report.Cancelled = CancelledNow();
  }

  // Completion sweep: an injected task fault (or a drained group) can
  // leave claimed-but-unrun indices behind. Re-run them inline; an index
  // that *still* throws is committed as a faulted placeholder so the
  // campaign nevertheless completes. Deadline- or cancellation-ended
  // campaigns are genuinely partial and are left that way.
  if (!Report.DeadlineHit && !Report.Cancelled) {
    for (uint64_t I = 0; I < Options.Programs; ++I) {
      if (Completed[I].load(std::memory_order_relaxed))
        continue;
      if (CancelledNow()) {
        Report.Cancelled = true;
        break;
      }
      if (!RunCommit(I, Report)) {
        IndexRecord Placeholder;
        Placeholder.Faulted = 1;
        mergeIndex(Report, Placeholder);
        J.record(I, Placeholder);
        Completed[I].store(true, std::memory_order_relaxed);
      }
    }
  }

  std::sort(Report.Failures.begin(), Report.Failures.end(),
            [](const FuzzFailure &A, const FuzzFailure &B) {
              return std::tie(A.ProgramIndex, A.Property) <
                     std::tie(B.ProgramIndex, B.Property);
            });
  BehaviourCache::CacheStats Cache1 = BehaviourCache::global().stats();
  Report.CacheHits = Cache1.hits() - Cache0.hits();
  Report.CacheMisses = Cache1.misses() - Cache0.misses();
  Report.ElapsedMs = ElapsedMs();
  return Report;
}
