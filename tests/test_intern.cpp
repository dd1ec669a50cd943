//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for span interning and the sleep-set memo: idempotence,
/// collision safety, real-byte budget charging, the subset-prune rule, and
/// concurrent interning.
///
//===----------------------------------------------------------------------===//

#include "support/Intern.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

using namespace tracesafe;

namespace {

TEST(InternPool, FirstInsertThenHit) {
  InternPool P;
  uint64_t W[] = {1, 2, 3};
  InternPool::Result A = P.intern(W, 3);
  EXPECT_TRUE(A.Inserted);
  InternPool::Result B = P.intern(W, 3);
  EXPECT_FALSE(B.Inserted);
  EXPECT_EQ(A.Id, B.Id);
  EXPECT_EQ(P.size(), 1u);
}

TEST(InternPool, DistinctSpansDistinctIds) {
  InternPool P;
  uint64_t A[] = {1, 2, 3};
  uint64_t B[] = {1, 2, 4};
  uint64_t C[] = {1, 2};
  uint32_t Ia = P.intern(A, 3).Id;
  uint32_t Ib = P.intern(B, 3).Id;
  uint32_t Ic = P.intern(C, 2).Id;
  EXPECT_NE(Ia, Ib);
  EXPECT_NE(Ia, Ic);
  EXPECT_NE(Ib, Ic);
  EXPECT_EQ(P.size(), 3u);
}

TEST(InternPool, EmptySpanInterns) {
  // The root state of the POR search interns an empty sleep signature.
  InternPool P;
  InternPool::Result A = P.intern(nullptr, 0);
  EXPECT_TRUE(A.Inserted);
  InternPool::Result B = P.intern(nullptr, 0);
  EXPECT_FALSE(B.Inserted);
  EXPECT_EQ(A.Id, B.Id);
  auto [Ptr, Len] = P.view(A.Id);
  EXPECT_EQ(Len, 0u);
  (void)Ptr;
}

TEST(InternPool, ViewRoundTrips) {
  InternPool P;
  std::vector<uint64_t> W = {42, 0, ~0ULL, 7};
  uint32_t Id = P.intern(W.data(), W.size()).Id;
  auto [Ptr, Len] = P.view(Id);
  ASSERT_EQ(Len, W.size());
  for (size_t I = 0; I < W.size(); ++I)
    EXPECT_EQ(Ptr[I], W[I]);
}

TEST(InternPool, ViewStaysValidAcrossGrowth) {
  InternPool P;
  uint64_t First[] = {0xABCDEF};
  uint32_t Id = P.intern(First, 1).Id;
  const uint64_t *Before = P.view(Id).first;
  // Force many arena chunks and table rehashes.
  for (uint64_t I = 0; I < 50'000; ++I) {
    uint64_t W[] = {I, I * 3, I * 7};
    P.intern(W, 3);
  }
  auto [After, Len] = P.view(Id);
  EXPECT_EQ(After, Before) << "arena chunks must never move";
  ASSERT_EQ(Len, 1u);
  EXPECT_EQ(After[0], 0xABCDEFu);
}

TEST(InternPool, OversizeSpanThenSmallSpans) {
  // A span longer than any arena chunk gets a chunk of its own; the spans
  // after it must land in fresh storage, not past the end of that chunk.
  InternPool P;
  std::vector<uint64_t> Big(9'000);
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = I * 0x9E3779B97F4A7C15ULL;
  uint32_t BigId = P.intern(Big.data(), Big.size()).Id;
  std::vector<std::vector<uint64_t>> Small;
  std::vector<uint32_t> SmallIds;
  for (uint64_t K = 0; K < 3'000; ++K) {
    Small.push_back({K, K + 1, K + 2, K + 3});
    SmallIds.push_back(P.intern(Small.back().data(), 4).Id);
  }
  auto [BigPtr, BigLen] = P.view(BigId);
  ASSERT_EQ(BigLen, Big.size());
  EXPECT_TRUE(std::equal(Big.begin(), Big.end(), BigPtr));
  for (size_t K = 0; K < Small.size(); ++K) {
    auto [Ptr, Len] = P.view(SmallIds[K]);
    ASSERT_EQ(Len, 4u);
    EXPECT_TRUE(std::equal(Small[K].begin(), Small[K].end(), Ptr)) << K;
  }
}

TEST(InternPool, AlternatingPoolsKeepTheirIds) {
  // The engines intern into two pools in turn on every state; the
  // thread-local front cache is shared by both and must never hand one
  // pool's id to the other.
  InternPool A, B;
  for (int Round = 0; Round < 3; ++Round)
    for (uint64_t I = 0; I < 500; ++I) {
      uint64_t W[] = {I, I * 5};
      InternPool::Result Ra = A.intern(W, 2);
      InternPool::Result Rb = B.intern(W, 2);
      EXPECT_EQ(Ra.Inserted, Round == 0);
      EXPECT_EQ(Rb.Inserted, Round == 0);
      EXPECT_EQ(A.view(Ra.Id).first[1], I * 5);
      EXPECT_EQ(B.view(Rb.Id).first[1], I * 5);
    }
  EXPECT_EQ(A.size(), 500u);
  EXPECT_EQ(B.size(), 500u);
}

TEST(InternPool, ChargesRealBytesToBudget) {
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 64 * 1024 * 1024;
  Budget B(Spec);
  InternPool P(/*ShardBits=*/0, &B);
  for (uint64_t I = 0; I < 10'000; ++I) {
    uint64_t W[] = {I, I + 1};
    P.intern(W, 2);
  }
  // The pool must have charged at least its span storage (2 words x 10k
  // spans), and its own accounting must agree with a sane lower bound.
  EXPECT_GE(P.bytes(), 10'000u * 2 * sizeof(uint64_t));
  EXPECT_FALSE(B.exhausted());
}

TEST(InternPool, BudgetExhaustionIsFlaggedNotFatal) {
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 16 * 1024; // far less than 100k spans need
  Budget B(Spec);
  InternPool P(/*ShardBits=*/0, &B);
  for (uint64_t I = 0; I < 100'000; ++I) {
    uint64_t W[] = {I, I ^ 0x5555, I << 7};
    P.intern(W, 3);
  }
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::MemoryCap);
  // The pool itself stays coherent after exhaustion.
  uint64_t W[] = {1, 0x5554, 1ULL << 7};
  EXPECT_FALSE(P.intern(W, 3).Inserted);
}

TEST(InternPool, ConcurrentInterningIsConsistent) {
  InternPool P(/*ShardBits=*/4);
  ThreadPool Pool(4);
  constexpr uint64_t Span = 2'000;
  std::vector<std::atomic<uint32_t>> Ids(Span);
  for (auto &A : Ids)
    A.store(UINT32_MAX);
  {
    ThreadPool::TaskGroup G(Pool);
    for (int W = 0; W < 8; ++W)
      G.spawn([&P, &Ids, W] {
        for (uint64_t I = 0; I < Span; ++I) {
          uint64_t Words[] = {I, I * 31};
          uint32_t Id = P.intern(Words, 2).Id;
          uint32_t Expected = UINT32_MAX;
          if (!Ids[I].compare_exchange_strong(Expected, Id)) {
            EXPECT_EQ(Expected, Id) << "span " << I << " worker " << W;
          }
        }
      });
  }
  EXPECT_EQ(P.size(), Span);
}

TEST(InternPool, LockFreeReadsRaceWithGrowth) {
  // The read fast path (hash probe over an atomically published slot
  // table, plus view()) takes no lock; this drives it concurrently with
  // enough fresh inserts to force several table growths and arena chunk
  // allocations mid-probe. Readers hammer spans inserted before the storm
  // and verify both id stability and payload round-trips — under TSan
  // this is the proof the published-table scheme has no data race.
  InternPool P(/*ShardBits=*/2);
  constexpr uint64_t Hot = 512;
  std::vector<uint32_t> HotIds(Hot);
  for (uint64_t I = 0; I < Hot; ++I) {
    uint64_t W[] = {I, ~I, I * 0x9E3779B97F4A7C15ULL};
    HotIds[I] = P.intern(W, 3).Id;
  }
  ThreadPool Pool(4);
  {
    ThreadPool::TaskGroup G(Pool);
    // Writers: force growth with a stream of fresh spans.
    for (int Writer = 0; Writer < 2; ++Writer)
      G.spawn([&P, Writer] {
        for (uint64_t I = 0; I < 20'000; ++I) {
          uint64_t W[] = {(uint64_t)Writer << 32 | I, I * 131, I * 137, I};
          P.intern(W, 4);
        }
      });
    // Readers: re-intern hot spans (hit path) and view their payloads.
    for (int Reader = 0; Reader < 4; ++Reader)
      G.spawn([&P, &HotIds] {
        for (int Round = 0; Round < 50; ++Round)
          for (uint64_t I = 0; I < Hot; ++I) {
            uint64_t W[] = {I, ~I, I * 0x9E3779B97F4A7C15ULL};
            InternPool::Result R = P.intern(W, 3);
            ASSERT_FALSE(R.Inserted);
            ASSERT_EQ(R.Id, HotIds[I]);
            auto [Ptr, Len] = P.view(R.Id);
            ASSERT_EQ(Len, 3u);
            ASSERT_EQ(Ptr[0], I);
            ASSERT_EQ(Ptr[2], I * 0x9E3779B97F4A7C15ULL);
          }
      });
  }
  EXPECT_EQ(P.size(), Hot + 2 * 20'000);
}

TEST(SleepMemo, SubsetPruneRule) {
  InternPool Sigs;
  SleepMemo Memo(/*ShardBits=*/0, Sigs);
  uint64_t E1[] = {10};
  uint64_t E12[] = {10, 20};
  uint64_t E2[] = {20};
  uint32_t S1 = Sigs.intern(E1, 1).Id;
  uint32_t S12 = Sigs.intern(E12, 2).Id;
  uint32_t S2 = Sigs.intern(E2, 1).Id;
  uint32_t SEmpty = Sigs.intern(nullptr, 0).Id;

  // First visit with {10,20} explores.
  EXPECT_TRUE(Memo.shouldExplore(/*StateId=*/7, S12));
  // Revisit with a superset-or-equal sleep is covered: {10,20} ⊆ {10,20}.
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  // Smaller sleep {10} allows MORE transitions -> must re-explore.
  EXPECT_TRUE(Memo.shouldExplore(7, S1));
  // Now {10} is recorded; {10,20} is a superset -> covered.
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  // {20} is not a superset of {10} -> explore.
  EXPECT_TRUE(Memo.shouldExplore(7, S2));
  // Empty sleep is a subset of nothing recorded except itself -> explore,
  // and afterwards it dominates everything.
  EXPECT_TRUE(Memo.shouldExplore(7, SEmpty));
  EXPECT_FALSE(Memo.shouldExplore(7, S1));
  EXPECT_FALSE(Memo.shouldExplore(7, S2));
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  EXPECT_FALSE(Memo.shouldExplore(7, SEmpty));

  // Distinct states do not interfere.
  EXPECT_TRUE(Memo.shouldExplore(8, S12));
}

TEST(SleepMemo, ConcurrentVisitsNeverBothPrune) {
  // Whatever the interleaving, at least one of two concurrent first visits
  // to the same (state, signature) must explore.
  InternPool Sigs(/*ShardBits=*/2);
  SleepMemo Memo(/*ShardBits=*/2, Sigs);
  uint64_t W[] = {5};
  uint32_t Sig = Sigs.intern(W, 1).Id;
  ThreadPool Pool(4);
  constexpr uint32_t States = 500;
  std::vector<std::atomic<int>> Explored(States);
  {
    ThreadPool::TaskGroup G(Pool);
    for (int Worker = 0; Worker < 8; ++Worker)
      G.spawn([&Memo, &Explored, Sig] {
        for (uint32_t S = 0; S < States; ++S)
          if (Memo.shouldExplore(S, Sig))
            Explored[S].fetch_add(1);
      });
  }
  for (uint32_t S = 0; S < States; ++S)
    EXPECT_EQ(Explored[S].load(), 1) << "state " << S;
}

TEST(SleepMemo, LockFreePrunesRaceWithRecordingVisits) {
  // shouldExplore answers "prune" (false) without the shard lock when a
  // dominating record is already published. Mix recording first visits
  // with a flood of read-mostly revisits across many states while new
  // signatures keep landing in the signature pool (invalidating the
  // thread-local front cache via the generation counter). The invariant
  // from ConcurrentVisitsNeverBothPrune must survive the fast path:
  // exactly one explorer per (state, dominant signature).
  InternPool Sigs(/*ShardBits=*/2);
  SleepMemo Memo(/*ShardBits=*/2, Sigs);
  constexpr uint32_t States = 300;
  std::vector<std::atomic<int>> Explored(States);
  ThreadPool Pool(4);
  {
    ThreadPool::TaskGroup G(Pool);
    // Churn: grow the signature pool so readers' caches go stale.
    G.spawn([&Sigs] {
      for (uint64_t I = 0; I < 30'000; ++I) {
        uint64_t W[] = {I | (1ULL << 40), I * 31};
        Sigs.intern(W, 2);
      }
    });
    for (int Worker = 0; Worker < 6; ++Worker)
      G.spawn([&Memo, &Sigs, &Explored, Worker] {
        uint64_t W[] = {7};
        uint32_t Sig = Sigs.intern(W, 1).Id;
        for (int Round = 0; Round < 40; ++Round)
          for (uint32_t S = 0; S < States; ++S)
            if (Memo.shouldExplore(S, Sig))
              Explored[S].fetch_add(1);
        (void)Worker;
      });
  }
  for (uint32_t S = 0; S < States; ++S)
    EXPECT_EQ(Explored[S].load(), 1) << "state " << S;
}

} // namespace
