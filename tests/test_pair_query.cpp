//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of the daemon's pair-query engine (verify/PairQuery)
/// against the execution-based checkers it replaced on the primary path
/// (checkDrfGuarantee, checkThinAir on lang/ProgramExec).
///
/// Every generator discipline at 2 and 3 threads, each program paired with
/// a greedy chain, a random chain and (where one applies) the fuzzer's
/// injected unsafe pass. The served DrfGuarantee and ThinAir responses
/// must carry the Kind and Detail rendered from the checkers' reports,
/// byte for byte. The sweep must exercise both routes of the DRF
/// guarantee: pairs the Lemma 5 certificate proves, and Violated verdicts
/// that only the engines of step 3 can give.
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "verify/BehaviourCache.h"
#include "verify/PairQuery.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

VerdictKind verdictOf(GuaranteeOutcome O) {
  return O == GuaranteeOutcome::Holds      ? VerdictKind::Proved
         : O == GuaranteeOutcome::Violated ? VerdictKind::Refuted
                                           : VerdictKind::Unknown;
}

/// The daemon's rendering of a DrfGuarantee report: "<kind> <detail>".
std::string render(const DrfGuaranteeReport &R) {
  return std::string(verdictKindName(verdictOf(R.outcome()))) +
         " orig-drf=" + (R.OriginalDrf ? "1" : "0") +
         " trans-drf=" + (R.TransformedDrf ? "1" : "0") +
         " preserved=" + (R.BehavioursPreserved ? "1" : "0");
}

/// The daemon's rendering of a ThinAir report.
std::string render(const ThinAirReport &R) {
  return std::string(verdictKindName(verdictOf(R.outcome()))) +
         " c=" + std::to_string(R.Constant) +
         " outputs=" + (R.TransformedOutputs ? "1" : "0") +
         " origin=" + (R.TransformedHasOrigin ? "1" : "0");
}

std::string render(const QueryResponse &R) {
  return std::string(verdictKindName(R.Kind)) + " " + R.Detail;
}

QueryRequest pairQuery(QueryKind K, const Program &O, const Program &T) {
  QueryRequest Q;
  Q.Kind = K;
  Q.Program = printProgram(O);
  Q.Transformed = printProgram(T);
  return Q;
}

struct Pair {
  std::string Label;
  Program Orig;
  Program Transformed;
};

/// The sweep: serve_cold-shaped programs (2 threads of up to 6
/// statements, 3 threads of up to 5) under every discipline.
std::vector<Pair> sweepPairs() {
  std::vector<Pair> Out;
  const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  for (GenDiscipline D : Disciplines)
    for (unsigned Threads : {2u, 3u})
      for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
        GenOptions G;
        G.Discipline = D;
        G.Threads = Threads;
        G.MaxStmtsPerThread = Threads == 3 ? 5 : 6;
        Rng R(Seed * 1000 + Threads * 10 + static_cast<uint64_t>(D));
        Program P = generateProgram(R, G);
        std::string Tag = "discipline " +
                          std::to_string(static_cast<int>(D)) + ", " +
                          std::to_string(Threads) + " threads, seed " +
                          std::to_string(Seed);
        Out.push_back({Tag + ", greedy chain", P,
                       greedyChain(P, RuleSet::all()).Result});
        Out.push_back({Tag + ", random chain", P,
                       randomChain(P, RuleSet::all(), 4, R).Result});
        if (std::optional<Program> U = applyFirstUnsafe(P))
          Out.push_back({Tag + ", unsafe pass", P, std::move(*U)});
      }
  return Out;
}

TEST(PairQuery, ServedVerdictsMatchTheExecutionCheckers) {
  size_t Certified = 0, EngineViolated = 0, Pairs = 0;
  for (const Pair &Case : sweepPairs()) {
    SCOPED_TRACE(Case.Label + "\noriginal:\n" + printProgram(Case.Orig) +
                 "transformed:\n" + printProgram(Case.Transformed));
    ++Pairs;
    DrfGuaranteeReport Drf = checkDrfGuarantee(Case.Orig, Case.Transformed);
    Value C = freshConstantFor(Case.Orig);
    ThinAirReport Air = checkThinAir(Case.Orig, Case.Transformed, C);

    QueryResponse SDrf = evaluateQuery(
        pairQuery(QueryKind::DrfGuarantee, Case.Orig, Case.Transformed), {});
    QueryResponse SAir = evaluateQuery(
        pairQuery(QueryKind::ThinAir, Case.Orig, Case.Transformed), {});
    EXPECT_EQ(render(SDrf), render(Drf));
    EXPECT_EQ(render(SAir), render(Air));
    EXPECT_FALSE(SDrf.Degraded);
    EXPECT_FALSE(SAir.Degraded);

    Budget B(BudgetSpec{});
    bool ByCertificate = false;
    DrfGuaranteeReport Rep =
        drfGuaranteeQuery(Case.Orig, Case.Transformed, B, &ByCertificate);
    EXPECT_EQ(render(Rep), render(Drf));
    Certified += ByCertificate;
    EngineViolated += Rep.outcome() == GuaranteeOutcome::Violated;
    if (ByCertificate) {
      EXPECT_TRUE(Drf.OriginalDrf && Drf.TransformedDrf &&
                  Drf.BehavioursPreserved);
    }
  }
  EXPECT_GT(Certified, Pairs / 4) << "the certificate should decide pairs";
  EXPECT_GT(EngineViolated, 0u) << "unsafe passes should give Violated";
}

/// Inputs and outputs are both external actions. Over dom(O) ∪ dom(T)
/// the original's `input` could read 5 and so match the transformed
/// program's `print 5`, but over dom(O), the domain the guarantee compares
/// behaviours over, the original cannot make [5]. The certificate must
/// not prove such a pair.
TEST(PairQuery, ANewConstantOutputIsNotCertified) {
  ParseResult O = parseProgram("thread { input r0; }\n");
  ParseResult T = parseProgram("thread { print 5; }\n");
  ASSERT_TRUE(O && T);
  DrfGuaranteeReport Drf = checkDrfGuarantee(*O.Prog, *T.Prog);
  ASSERT_EQ(Drf.outcome(), GuaranteeOutcome::Violated);

  Budget B(BudgetSpec{});
  bool ByCertificate = true;
  DrfGuaranteeReport Rep = drfGuaranteeQuery(*O.Prog, *T.Prog, B,
                                             &ByCertificate);
  EXPECT_FALSE(ByCertificate);
  EXPECT_EQ(render(Rep), render(Drf));

  BehaviourCache::global().clear();
  QueryResponse S = evaluateQuery(
      pairQuery(QueryKind::DrfGuarantee, *O.Prog, *T.Prog), {});
  EXPECT_EQ(render(S), render(Drf));
}

TEST(PairQuery, TruncationIsUnknownForBothKinds) {
  GenOptions G;
  G.Discipline = GenDiscipline::LockDiscipline;
  G.Threads = 3;
  Rng R(7);
  Program P = generateProgram(R, G);
  Program T = greedyChain(P, RuleSet::all()).Result;
  BehaviourCache::global().clear();
  BudgetSpec Tiny;
  Tiny.MaxVisited = 3;
  for (QueryKind K : {QueryKind::DrfGuarantee, QueryKind::ThinAir}) {
    QueryResponse S = evaluateQuery(pairQuery(K, P, T), Tiny);
    EXPECT_EQ(S.Kind, VerdictKind::Unknown);
    EXPECT_EQ(S.Reason, TruncationReason::StateCap);
  }
}

/// Warmth invariance: cached sub-results replay their recorded cost, so a
/// DrfGuarantee whose single-program sub-questions were already asked (a
/// ProgramDrf and a Behaviours query on the same original) charges the
/// same visits, and answers the same, as a cold one.
TEST(PairQuery, WarmSubResultsChargeTheColdCost) {
  size_t Index = 0;
  for (const Pair &Case : sweepPairs()) {
    if (Index++ % 7)
      continue; // a sample across every discipline and transform
    SCOPED_TRACE(Case.Label);
    QueryRequest Q =
        pairQuery(QueryKind::DrfGuarantee, Case.Orig, Case.Transformed);
    BehaviourCache::global().clear();
    QueryResponse Cold = evaluateQuery(Q, {});

    BehaviourCache::global().clear();
    for (QueryKind K : {QueryKind::ProgramDrf, QueryKind::Behaviours}) {
      QueryRequest Single;
      Single.Kind = K;
      Single.Program = Q.Program;
      evaluateQuery(Single, {});
    }
    BehaviourCache::CacheStats Before = BehaviourCache::global().stats();
    QueryResponse Warm = evaluateQuery(Q, {});
    BehaviourCache::CacheStats After = BehaviourCache::global().stats();
    EXPECT_GT(After.TracesetHits + After.DrfHits,
              Before.TracesetHits + Before.DrfHits)
        << "the pair query should reuse the warm sub-results";
    EXPECT_EQ(Warm.Visited, Cold.Visited);
    EXPECT_EQ(Warm.str(), Cold.str());
  }
  BehaviourCache::global().clear();
}

} // namespace
