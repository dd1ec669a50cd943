//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the benchmark's own helpers: the tail-percentile rule, the
/// host-steal slice filter, seed determinism of every workload's input
/// stream, span self-time arithmetic, the alpha-variant generator and the
/// Behaviours checker.
/// Run with `python3 perfbench/run.py --selftest`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "verify/Canonical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

using namespace tsbench;

namespace {

const char *const Workloads[] = {"serve_cold", "serve_repeat",
                                 "campaign_burst", "relaxed_sweep",
                                 "racelog_scan"};

TEST(Percentile, NearestRank) {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50), 50);
  EXPECT_EQ(percentile(V, 99), 99);
  EXPECT_EQ(percentile(V, 100), 100);
  EXPECT_EQ(percentile(V, 0), 1);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  EXPECT_EQ(tailPercentileFor(1000), 99);
  EXPECT_EQ(tailPercentileFor(999), 95);
  EXPECT_EQ(tailPercentileFor(200), 95);
  EXPECT_EQ(tailPercentileFor(100), 90);
  EXPECT_EQ(tailPercentileFor(50), 80);
  EXPECT_EQ(tailPercentileFor(20), 50);
  EXPECT_EQ(tailPercentileFor(5), 50); // too few for any tail
  for (size_t N = 20; N <= 5000; ++N) {
    std::vector<double> V;
    for (size_t I = 0; I < N; ++I)
      V.push_back(static_cast<double>(I));
    double P = tailPercentileFor(N);
    double At = percentile(V, P);
    size_t Beyond = 0;
    for (double X : V)
      Beyond += X > At;
    ASSERT_GE(Beyond, 10u) << "N=" << N << " p" << P;
  }
}

TEST(Steal, ShareOverAnInterval) {
  std::vector<StealSample> S = {
      {0.0, 0, 0}, {1.0, 10, 400}, {2.0, 210, 800}, {3.0, 210, 1200}};
  EXPECT_DOUBLE_EQ(stealShare(S, 0.0, 1.0), 10.0 / 400);
  EXPECT_DOUBLE_EQ(stealShare(S, 1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(stealShare(S, 0.5, 2.5), 210.0 / 1200);
  EXPECT_DOUBLE_EQ(stealShare(S, -1.0, 1.0), 10.0 / 400); // clamped
  EXPECT_DOUBLE_EQ(stealShare(S, 1.0, 9.0), 200.0 / 800);  // clamped
  EXPECT_DOUBLE_EQ(stealShare({}, 0.0, 1.0), 0);
}

TEST(Steal, StolenSlicesAreLeftOut) {
  // Twenty slices of 128 operations. Slice 3 runs at half speed, from
  // t = 3 s to 5 s, while the host steals half the CPU; the others take
  // one second each with no steal.
  Outcome O;
  double T = 0;
  for (int K = 0; K < 20; ++K)
    for (int I = 0; I < 128; ++I) {
      T += (K == 3 ? 2.0 : 1.0) / 128;
      O.Ops.push_back({T, 1, 1, 1, 100});
    }
  for (int At = 0; At <= 22; ++At) {
    uint64_t Stolen = At <= 3 ? 0 : At >= 5 ? 400 : 200 * (At - 3);
    O.Steal.push_back({static_cast<double>(At), Stolen,
                       static_cast<uint64_t>(At) * 400});
  }
  std::string Note;
  std::vector<Metric> M = endToEndMetrics(O, &Note);
  EXPECT_EQ(M[1].Name, "queries_per_s");
  EXPECT_DOUBLE_EQ(M[1].Value, 128);
  EXPECT_NE(Note.find("1 of 20 slices left out"), std::string::npos) << Note;

  // When most of the run is stolen, every slice counts.
  for (StealSample &S : O.Steal)
    S.Steal = S.Total / 2;
  M = endToEndMetrics(O, &Note);
  EXPECT_NE(Note.find("0 of 20 slices left out"), std::string::npos) << Note;
}

TEST(Streams, SameSeedSameBytes) {
  for (const char *W : Workloads) {
    std::string A = streamBytes(W, 7, 40);
    EXPECT_FALSE(A.empty()) << W;
    EXPECT_EQ(A, streamBytes(W, 7, 40)) << W;
  }
}

TEST(Streams, DifferentSeedsDifferentBytes) {
  for (const char *W : Workloads)
    EXPECT_NE(streamBytes(W, 7, 40), streamBytes(W, 8, 40)) << W;
}

TEST(Streams, ColdQueriesAreDistinct) {
  ColdGenerator G(3);
  std::set<std::string> Keys;
  for (int I = 0; I < 300; ++I) {
    StreamQuery Q = G.next();
    EXPECT_EQ(Q.Index, static_cast<uint64_t>(I));
    Keys.insert(tracesafe::canonicalQueryKey(
        static_cast<uint8_t>(Q.Req.Kind), Q.Req.Program, Q.Req.Transformed,
        {}));
  }
  EXPECT_EQ(Keys.size(), 300u);
}

TEST(Streams, AlphaVariantsKeepTheCanonicalKey) {
  ColdGenerator G(5);
  tracesafe::Rng R(9);
  size_t Changed = 0;
  for (int I = 0; I < 100; ++I) {
    QueryRequest Q = G.next().Req;
    QueryRequest V = alphaVariant(Q, R);
    Changed += V.Program != Q.Program;
    EXPECT_EQ(tracesafe::canonicalQueryKey(static_cast<uint8_t>(Q.Kind),
                                           Q.Program, Q.Transformed, {}),
              tracesafe::canonicalQueryKey(static_cast<uint8_t>(V.Kind),
                                           V.Program, V.Transformed, {}))
        << Q.Program << "\n--\n" << V.Program;
  }
  EXPECT_GT(Changed, 90u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> S = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},  // overlaps a: counted once
      {"c", 90, 120, 0, 1}, // clipped to the parent's end
      {"d", 12, 18, 1, 1},  // grandchild: only a's self time shrinks
  };
  std::vector<double> Self = selfTimesUs(S);
  EXPECT_DOUBLE_EQ(Self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(Self[1], 20 - 6);
  EXPECT_DOUBLE_EQ(Self[2], 30);
  EXPECT_DOUBLE_EQ(Self[3], 30);
  EXPECT_DOUBLE_EQ(Self[4], 6);
}

TEST(Spans, SelfTimeIsNeverNegative) {
  std::vector<Span> S = {{"root", 0, 10, -1, 1}, {"x", -5, 40, 0, 1}};
  EXPECT_DOUBLE_EQ(selfTimesUs(S)[0], 0);
}

TEST(Spans, TracerAggregatesByName) {
  Tracer T;
  {
    Tracer::Scope Root(T, "query", 7);
    Tracer::Scope Child(T, "lang.parse", 7, Root.id());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<Span> All = T.spans();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[1].Parent, 0);
  EXPECT_EQ(All[1].RequestId, 7u);
  auto Agg = T.byName();
  EXPECT_EQ(Agg["query"].Count, 1u);
  EXPECT_GE(Agg["lang.parse"].TotalUs, 2000);
  EXPECT_LT(Agg["query"].SelfUs, Agg["query"].TotalUs);
  EXPECT_NEAR(Agg["query"].SelfUs + Agg["lang.parse"].TotalUs,
              Agg["query"].TotalUs, 1e-6);
}

TEST(Oracle, BehavioursDetail) {
  std::set<Behaviour> E = {{0}, {1, 2}, {3}};
  EXPECT_TRUE(behavioursDetailMatches("behaviours=3 [0] [1,2] [3]", E));
  EXPECT_FALSE(behavioursDetailMatches("behaviours=3 [0] [1,2] [4]", E));
  EXPECT_FALSE(behavioursDetailMatches("behaviours=2 [0] [1,2]", E));
  EXPECT_FALSE(behavioursDetailMatches("race", E));
  // Long sets are listed up to a cap, then elided.
  EXPECT_TRUE(behavioursDetailMatches("behaviours=3 [0] [1,2] ...", E));
}

} // namespace
