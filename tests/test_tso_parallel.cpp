//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence tests for the parallel interned TSO/PSO engine
/// (tso/BufferedEngine.cpp) against the sequential exhaustive machines
/// kept as oracles (TsoLimits::ExhaustiveOracle).
///
/// The headline guarantee: behaviour sets are byte-identical across every
/// worker width, with and without store-buffer partial-order reduction,
/// and equal to the oracle — on the full litmus corpus and on randomised
/// programs. Also checks that the reduction actually reduces (visit
/// counts), and that budget exhaustion degrades to an honest truncation
/// instead of a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "support/Budget.h"
#include "tso/Litmus.h"
#include "tso/PsoMachine.h"
#include "tso/TsoMachine.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TsoLimits limits(unsigned Workers, bool UseReduction) {
  TsoLimits L;
  L.Workers = Workers;
  L.UseReduction = UseReduction;
  return L;
}

TsoLimits oracle() {
  TsoLimits L;
  L.ExhaustiveOracle = true;
  return L;
}

/// Asserts the full engine matrix agrees on \p P for one model.
void expectMatrixAgrees(
    const Program &P, const std::string &Name,
    std::set<Behaviour> (*Model)(const Program &, TsoLimits, ExecStats *)) {
  std::set<Behaviour> Want = Model(P, oracle(), nullptr);
  for (unsigned Workers : {1u, 2u, 8u})
    for (bool Reduce : {true, false}) {
      std::set<Behaviour> Got = Model(P, limits(Workers, Reduce), nullptr);
      EXPECT_EQ(Got, Want) << Name << ": workers=" << Workers
                           << " reduction=" << Reduce;
    }
}

/// Asserts the engine matrix agrees with the oracle on \p P under both
/// models at every buffer bound in \p Bounds.
void expectBoundedMatrixAgrees(const Program &P, const std::string &Name,
                               std::initializer_list<size_t> Bounds) {
  for (size_t Bound : Bounds) {
    TsoLimits O = oracle();
    O.MaxBufferedStores = Bound;
    std::set<Behaviour> WantTso = tsoBehaviours(P, O, nullptr);
    std::set<Behaviour> WantPso = psoBehaviours(P, O, nullptr);
    for (unsigned Workers : {1u, 2u, 8u})
      for (bool Reduce : {true, false}) {
        TsoLimits L = limits(Workers, Reduce);
        L.MaxBufferedStores = Bound;
        std::string Cfg = " bound=" + std::to_string(Bound) +
                          " workers=" + std::to_string(Workers) +
                          " reduction=" + std::to_string(Reduce);
        EXPECT_EQ(tsoBehaviours(P, L, nullptr), WantTso)
            << Name << " (TSO)" << Cfg;
        EXPECT_EQ(psoBehaviours(P, L, nullptr), WantPso)
            << Name << " (PSO)" << Cfg;
      }
  }
}

TEST(TsoParallel, LitmusCorpusMatchesOracleAtEveryWidth) {
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    expectMatrixAgrees(P, T.Name + " (TSO)", tsoBehaviours);
    expectMatrixAgrees(P, T.Name + " (PSO)", psoBehaviours);
  }
}

TEST(TsoParallel, TsoOnlyBehavioursMatchOracle) {
  // The subtraction path (TSO minus SC) runs both engines; it must be
  // width-independent too.
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    std::set<Behaviour> Want = tsoOnlyBehaviours(P, oracle());
    EXPECT_EQ(tsoOnlyBehaviours(P, limits(8, true)), Want) << T.Name;
    std::set<Behaviour> PsoWant = psoOnlyBehaviours(P, oracle());
    EXPECT_EQ(psoOnlyBehaviours(P, limits(8, true)), PsoWant) << T.Name;
  }
}

TEST(TsoParallel, RandomisedProgramsMatchOracleAtEveryWidth) {
  // Small shapes keep the oracle fast; disciplines rotate so fenced
  // (volatile/lock) and unfenced store-buffer paths are all exercised.
  const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Rng R(Seed * 0x9E3779B97F4A7C15ULL);
    GenOptions G;
    G.Discipline = Disciplines[Seed % 4];
    G.MaxStmtsPerThread = 4;
    G.AllowIf = false; // keep tracesets small enough for the oracle
    Program P = generateProgram(R, G);
    std::string Name = "seed " + std::to_string(Seed);
    expectMatrixAgrees(P, Name + " (TSO)", tsoBehaviours);
    expectMatrixAgrees(P, Name + " (PSO)", psoBehaviours);
  }
}

TEST(TsoParallel, ReductionPrunesStatesWithoutChangingTheAnswer) {
  // The classic SB shape maximises commutable drain/step pairs; sleep sets
  // must visit strictly fewer nodes and report the same set.
  Program P = parseOrDie(R"(
thread { x := 1; r1 := y; print r1; }
thread { y := 1; r2 := x; print r2; }
)");
  ExecStats Reduced, Full;
  std::set<Behaviour> A = tsoBehaviours(P, limits(1, true), &Reduced);
  std::set<Behaviour> B = tsoBehaviours(P, limits(1, false), &Full);
  EXPECT_EQ(A, B);
  EXPECT_LT(Reduced.Visited, Full.Visited)
      << "sleep-set POR did not prune any store-buffer interleavings";
}

TEST(TsoParallel, BufferBoundEdgesMatchOracle) {
  // The flat per-thread buffer array sizes its stride from
  // min(MaxBufferedStores, MaxActionsPerThread); the tight bounds (1 =
  // every store drains before the next, 2 = one pending reorder window)
  // are where an off-by-one in the packed drain/append logic would show.
  // The answer must track the oracle at the *same* bound, at every width.
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  expectBoundedMatrixAgrees(P, "two stores per thread", {1, 2, 8});
}

TEST(TsoParallel, SharedBudgetExhaustionIsReportedNotWrong) {
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/10,
                      /*MaxMemoryBytes=*/0});
  TsoLimits L = limits(2, true);
  L.Shared = &B;
  ExecStats Stats;
  std::set<Behaviour> Got = tsoBehaviours(P, L, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::StateCap);
  // A truncated answer must still be a subset of the true set.
  std::set<Behaviour> Want = tsoBehaviours(P);
  for (const Behaviour &Beh : Got)
    EXPECT_TRUE(Want.count(Beh));
}

TEST(TsoParallel, CancellationUnwindsPromptly) {
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  CancelToken Cancel;
  Cancel.request();
  Budget B(BudgetSpec{}, &Cancel);
  TsoLimits L = limits(8, true);
  L.Shared = &B;
  ExecStats Stats;
  tsoBehaviours(P, L, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::Cancelled);
}

TEST(TsoParallel, RandomisedInputsAndIfsMatchOracle) {
  // Inputs branch once per domain value and ifs put accesses in arms the
  // search may not have taken yet. 2-4 threads over 1-3 locations, every
  // bound, width and reduction setting: the per-worker step tables and
  // event caches must serve every forked task the same answers.
  const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed * 0xD1B54A32D192ED03ULL);
    GenOptions G;
    G.Discipline = Disciplines[Seed % 4];
    G.Threads = 2 + static_cast<unsigned>(Seed % 3);
    G.Locations = 1 + static_cast<unsigned>(Seed / 3 % 3);
    G.MinStmtsPerThread = 1;
    G.MaxStmtsPerThread = 5 - G.Threads;
    G.Registers = 1;
    G.AllowIf = true;
    G.AllowInput = true;
    Program P = generateProgram(R, G);
    // On even seeds every thread ends by printing its one register, so a
    // read value the reduced search loses shows up in the behaviours. Odd
    // seeds keep the generated prints only.
    if (Seed % 2 == 0)
      for (ThreadId Tid = 0; Tid < P.threadCount(); ++Tid)
        P.thread(Tid).push_back(
            std::make_unique<PrintStmt>(Operand::reg(Symbol::intern("r0"))));
    expectBoundedMatrixAgrees(P, "seed " + std::to_string(Seed), {1, 2, 8});
  }
}

TEST(TsoParallel, CommutationEdgeCasesMatchOracle) {
  const std::pair<const char *, const char *> Cases[] = {
      // A location the other thread stores only inside an arm it may not
      // take.
      {"store in an untaken arm", R"(
thread { x := 1; r1 := y; print r1; }
thread { r0 := x; if (r0 == 0) { skip; } else { y := 1; } }
)"},
      // Every input value must be explored beside the printing thread...
      {"input beside print", R"(
thread { input r1; print r1; }
thread { x := 1; r2 := x; print r2; }
)"},
      // ...and every branch of it must stay when the other thread has no
      // external action.
      {"input beside a silent thread", R"(
thread { input r1; y := r1; print r1; }
thread { r2 := y; x := r2; }
)"},
      // T's read of x forwards 1 from its own buffer, yet once T drains,
      // the other thread's drain of x lets the read see 2.
      {"forwarded read, later overwritten", R"(
thread { x := 1; r1 := x; print r1; }
thread { x := 2; }
)"},
      // A finished thread's buffered store still conflicts with a read
      // and with a drain of the same location.
      {"read beside another buffer", R"(
thread { x := 1; }
thread { r1 := x; print r1; }
)"},
      {"drain beside another buffer", R"(
thread { x := 1; x := 3; }
thread { x := 2; r1 := x; print r1; }
)"},
      // Volatile write against another thread's load of it (distinct
      // values, so the printed sequence names the thread).
      {"volatile write", R"(
volatile v;
thread { v := 1; r1 := x; print r1; }
thread { x := 2; r2 := v; print r2; }
)"},
      // Lock order decides which critical section's effects are seen.
      {"lock", R"(
thread { lock m; x := 1; r1 := y; unlock m; print r1; }
thread { lock m; y := 1; r2 := x; unlock m; print r2; }
)"},
      // Buffered writes and an unlock beside the other thread's lock and
      // loads.
      {"unlock and buffered writes", R"(
thread { lock m; x := 1; unlock m; y := 1; }
thread { r1 := y; lock m; r2 := x; unlock m; print r1; print r2; }
)"},
      // Two externals in different threads never commute.
      {"two printers", R"(
thread { print 1; x := 1; print 2; }
thread { r1 := x; print r1; }
)"},
  };
  for (const auto &[Name, Source] : Cases)
    expectBoundedMatrixAgrees(parseOrDie(Source), Name, {1, 2, 8});
}

} // namespace
