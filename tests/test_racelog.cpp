//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the streaming race detector: the TSRL log format's
/// valid-prefix robustness (torn tails, flipped bits, garbage headers,
/// unknown records), the happens-before semantics of the vector-clock
/// engines (locks, release joins, fork/join, read sharing), equivalence
/// of the epoch engine with the full-vector-clock oracle, determinism
/// across shard/worker configurations, budget discipline, and the
/// RaceDetect fault-injection site's containment contract.
///
//===----------------------------------------------------------------------===//

#include "racelog/Detect.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "support/Failure.h"
#include "support/RecordLog.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

std::string makeLog(const std::vector<LogEvent> &Events,
                    size_t PerBlock = DefaultEventsPerBlock) {
  LogWriter W(PerBlock);
  for (const LogEvent &E : Events)
    W.append(E);
  return W.finish();
}

LogEvent rd(uint32_t T, uint64_t A) { return {Op::Read, T, 0, A}; }
LogEvent wr(uint32_t T, uint64_t A) { return {Op::Write, T, 0, A}; }
LogEvent acq(uint32_t T, uint64_t L) { return {Op::Acquire, T, 0, L}; }
LogEvent rel(uint32_t T, uint64_t L) { return {Op::Release, T, 0, L}; }
LogEvent fork(uint32_t T, uint32_t U) { return {Op::Fork, T, U, 0}; }
LogEvent join(uint32_t T, uint32_t U) { return {Op::Join, T, U, 0}; }

/// (Addr, EventIndex, Tid, Write) — the engine-independent projection of a
/// race report (PrevTid may legitimately differ between the epoch engine
/// and the oracle when a location has several candidate prior accesses).
using RaceKey = std::tuple<uint64_t, uint64_t, uint32_t, bool>;
std::vector<RaceKey> keys(const RaceLogReport &R) {
  std::vector<RaceKey> Out;
  for (const RaceRecord &Rec : R.Races)
    Out.push_back({Rec.Addr, Rec.EventIndex, Rec.Tid, Rec.Write});
  return Out;
}

RaceLogReport scanCfg(const std::string &Log, unsigned Shards,
                      unsigned Workers, bool Epochs = true) {
  RaceLogOptions O;
  O.Shards = Shards;
  O.Workers = Workers;
  O.Epochs = Epochs;
  O.MaxRaces = 1 << 20;
  return scanRaceLog(Log, O);
}

//===----------------------------------------------------------------------===//
// Format: codec and valid-prefix robustness
//===----------------------------------------------------------------------===//

TEST(RaceLogFormat, RoundTripMultiBlock) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 1000; ++I) {
    In.push_back(rd(I % 7, 100 + I % 13));
    In.push_back(wr(I % 5, 200 + I % 11));
    In.push_back(acq(I % 3, 8));
    In.push_back(rel(I % 3, 8));
    In.push_back(fork(0, 1 + I % 9));
  }
  std::string Log = makeLog(In, /*PerBlock=*/64);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Log, Out, &D));
  EXPECT_FALSE(D.TornTail);
  EXPECT_GT(D.Blocks, 70u);
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Kind, In[I].Kind);
    EXPECT_EQ(Out[I].Tid, In[I].Tid);
    EXPECT_EQ(Out[I].Target, In[I].Target);
    EXPECT_EQ(Out[I].Addr, In[I].Addr);
  }
}

TEST(RaceLogFormat, EmptyAndGarbageAndShortHeaders) {
  std::vector<LogEvent> Sink;
  DecodedLog D;
  EXPECT_FALSE(decodeLog("", Sink, &D));
  EXPECT_EQ(D.Error, "empty file (no header)");
  EXPECT_FALSE(decodeLog("TSRL", Sink, &D)); // shorter than the header
  EXPECT_EQ(D.Error, "short file header");
  EXPECT_FALSE(decodeLog(std::string(64, 'x'), Sink, &D));
  EXPECT_EQ(D.Error, "bad file magic (not a TSRL log)");
  std::string Wrong = makeLog({});
  Wrong[4] = 9; // future format version
  EXPECT_FALSE(decodeLog(Wrong, Sink, &D));
  EXPECT_EQ(D.Error, "unsupported format version");

  // And the scanner agrees: an unusable header is Unknown, not a crash.
  RaceLogReport R = scanRaceLog(std::string(64, 'x'));
  EXPECT_FALSE(R.FormatOk);
  EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
}

TEST(RaceLogFormat, HeaderOnlyLogIsValidAndRaceFree) {
  std::string Log = makeLog({});
  EXPECT_EQ(Log.size(), FileHeaderSize);
  RaceLogReport R = scanRaceLog(Log);
  EXPECT_TRUE(R.FormatOk);
  EXPECT_EQ(R.Stats.Events, 0u);
  EXPECT_EQ(R.verdict(), VerdictKind::Proved);
}

TEST(RaceLogFormat, TruncatedTailIsDroppedPrefixIsKept) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 300; ++I)
    In.push_back(wr(0, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Chop mid-way through the last block's payload (a crashed recorder).
  std::string Torn = Log.substr(0, Log.size() - 37);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Torn, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 200u); // two intact blocks
  EXPECT_EQ(D.DroppedBytes, BlockHeaderSize + 100 * EventRecordSize - 37);

  RaceLogReport R = scanRaceLog(Torn);
  EXPECT_TRUE(R.FormatOk);
  EXPECT_TRUE(R.Stats.TornTail);
  EXPECT_EQ(R.Stats.Events, 200u);
  EXPECT_EQ(R.Stats.DroppedBytes, D.DroppedBytes);
  // Race-free prefix + torn tail: no definitive Proved.
  EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
}

TEST(RaceLogFormat, FlippedBitFailsTheBlockCrc) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 300; ++I)
    In.push_back(wr(0, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Flip one payload bit in the *middle* block.
  size_t SecondPayload =
      FileHeaderSize + 2 * BlockHeaderSize + 100 * EventRecordSize + 40;
  std::string Bad = Log;
  Bad[SecondPayload] = static_cast<char>(Bad[SecondPayload] ^ 0x10);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Bad, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 100u); // only the first block survives
  EXPECT_EQ(D.Blocks, 1u);
}

TEST(RaceLogFormat, UnknownRecordInsideValidBlockDropsTheTail) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 200; ++I)
    In.push_back(rd(1, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Corrupt a record *and* fix up the CRC: a "future recorder" wrote an op
  // this reader does not know. CRC passes; decode must still reject.
  size_t PayloadOff = FileHeaderSize + BlockHeaderSize;
  std::string Bad = Log;
  Bad[PayloadOff + 16 * 5] = 99; // invalid op byte in record 5, block 1
  uint32_t Crc = crc32(Bad.data() + PayloadOff, 100 * EventRecordSize);
  std::memcpy(Bad.data() + FileHeaderSize + 12, &Crc, 4);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Bad, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 0u); // the whole containing block is dropped
  EXPECT_EQ(D.Blocks, 0u);

  RaceLogReport R = scanRaceLog(Bad);
  EXPECT_TRUE(R.Stats.TornTail);
  EXPECT_EQ(R.Stats.Events, 0u);
}

TEST(RaceLogFormat, WriterNeverSplitsARecordAcrossBlocks) {
  std::string Log = makeLog({wr(0, 1), wr(0, 2), wr(0, 3)}, /*PerBlock=*/2);
  BlockCursor Cur(Log);
  ASSERT_TRUE(Cur.ok());
  EXPECT_EQ(Cur.nextPayload().size(), 2 * EventRecordSize);
  EXPECT_EQ(Cur.nextPayload().size(), 1 * EventRecordSize);
  EXPECT_TRUE(Cur.nextPayload().empty());
  EXPECT_FALSE(Cur.tornTail());
}

TEST(RaceLogFormat, PooledScanCutsThePrefixLikeInline) {
  // A race in the first block, so the verdicts say more than Unknown.
  std::vector<LogEvent> In = {wr(0, 7), wr(1, 7)};
  for (uint32_t I = 0; I < 298; ++I)
    In.push_back(wr(I % 3, 100 + I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  const size_t Block = BlockHeaderSize + 100 * EventRecordSize;

  std::string Torn = Log.substr(0, Log.size() - 37);
  std::string Flipped = Log;
  Flipped[FileHeaderSize + Block + BlockHeaderSize + 40] ^= 0x10;
  std::string Unknown = Log;
  size_t Rec = FileHeaderSize + Block + BlockHeaderSize + 16 * 5;
  Unknown[Rec] = 99; // invalid op in block 2, CRC fixed up
  uint32_t Crc = crc32(Unknown.data() + FileHeaderSize + Block +
                           BlockHeaderSize,
                       100 * EventRecordSize);
  std::memcpy(Unknown.data() + FileHeaderSize + Block + 12, &Crc, 4);

  struct Case {
    const std::string &Log;
    uint64_t Blocks, Dropped;
  } Cases[] = {{Torn, 2, Block - 37},
               {Flipped, 1, 2 * Block},
               {Unknown, 1, 2 * Block}};
  for (const Case &C : Cases) {
    RaceLogReport In1 = scanCfg(C.Log, 1, 1);
    RaceLogReport In4 = scanCfg(C.Log, 4, 4);
    EXPECT_EQ(In1.Stats.Blocks, C.Blocks);
    EXPECT_TRUE(In1.Stats.TornTail);
    EXPECT_EQ(In1.Stats.DroppedBytes, C.Dropped);
    EXPECT_EQ(In1.verdict(), VerdictKind::Refuted);
    EXPECT_EQ(In4.Stats.Blocks, In1.Stats.Blocks);
    EXPECT_EQ(In4.Stats.TornTail, In1.Stats.TornTail);
    EXPECT_EQ(In4.Stats.DroppedBytes, In1.Stats.DroppedBytes);
    EXPECT_EQ(In4.Stats.Events, In1.Stats.Events);
    EXPECT_EQ(In4.Races, In1.Races);
    EXPECT_EQ(In4.verdict(), In1.verdict());
  }
}

//===----------------------------------------------------------------------===//
// Detection semantics
//===----------------------------------------------------------------------===//

TEST(RaceLogDetect, UnsynchronisedConflictIsARace) {
  RaceLogReport R = scanRaceLog(makeLog({wr(0, 7), wr(1, 7)}));
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].Addr, 7u);
  EXPECT_EQ(R.Races[0].EventIndex, 1u);
  EXPECT_EQ(R.Races[0].Tid, 1u);
  EXPECT_EQ(R.Races[0].PrevTid, 0u);
  EXPECT_TRUE(R.Races[0].Write);
  EXPECT_TRUE(R.Races[0].PrevWrite);
  EXPECT_EQ(R.Stats.RacyLocations, 1u);
  EXPECT_EQ(R.verdict(), VerdictKind::Refuted);

  // Read-write and write-read flavours.
  RaceLogReport RW = scanRaceLog(makeLog({rd(0, 7), wr(1, 7)}));
  ASSERT_EQ(RW.Races.size(), 1u);
  EXPECT_TRUE(RW.Races[0].Write);
  EXPECT_FALSE(RW.Races[0].PrevWrite);
  RaceLogReport WR = scanRaceLog(makeLog({wr(0, 7), rd(1, 7)}));
  ASSERT_EQ(WR.Races.size(), 1u);
  EXPECT_FALSE(WR.Races[0].Write);
  EXPECT_TRUE(WR.Races[0].PrevWrite);
}

TEST(RaceLogDetect, ReadsNeverConflictAndSameThreadIsOrdered) {
  EXPECT_EQ(scanRaceLog(makeLog({rd(0, 7), rd(1, 7), rd(2, 7), rd(0, 7)}))
                .verdict(),
            VerdictKind::Proved);
  EXPECT_EQ(
      scanRaceLog(makeLog({wr(0, 7), rd(0, 7), wr(0, 7)})).verdict(),
      VerdictKind::Proved);
}

TEST(RaceLogDetect, LockDisciplineOrdersAccesses) {
  std::vector<LogEvent> Good = {acq(0, 2), wr(0, 7), rel(0, 2),
                                acq(1, 2), wr(1, 7), rel(1, 2)};
  EXPECT_EQ(scanRaceLog(makeLog(Good)).verdict(), VerdictKind::Proved);
  // Different locks do not synchronise.
  std::vector<LogEvent> Bad = {acq(0, 2), wr(0, 7), rel(0, 2),
                               acq(1, 4), wr(1, 7), rel(1, 4)};
  EXPECT_EQ(scanRaceLog(makeLog(Bad)).verdict(), VerdictKind::Refuted);
}

TEST(RaceLogDetect, ReleaseJoinsEveryEarlierRelease) {
  // This repo's §3 happens-before relates *any* earlier release of a lock
  // id to a later acquire (volatiles are modelled this way), so the lock
  // clock must accumulate both releasers — an overwrite-style release
  // would lose t0's and flag a false race on x.
  std::vector<LogEvent> L = {wr(0, 100), rel(0, 2), wr(1, 101), rel(1, 2),
                             acq(2, 2),  wr(2, 100), wr(2, 101)};
  EXPECT_EQ(scanRaceLog(makeLog(L)).verdict(), VerdictKind::Proved);
}

TEST(RaceLogDetect, ForkAndJoinEdges) {
  // Parent writes, forks child, child writes: ordered.
  EXPECT_EQ(scanRaceLog(makeLog({wr(0, 7), fork(0, 1), wr(1, 7)}))
                .verdict(),
            VerdictKind::Proved);
  // Child writes, parent joins it, parent writes: ordered.
  EXPECT_EQ(scanRaceLog(makeLog({wr(1, 7), join(0, 1), wr(0, 7)}))
                .verdict(),
            VerdictKind::Proved);
  // No edge: the same accesses race.
  EXPECT_EQ(scanRaceLog(makeLog({wr(0, 7), wr(1, 7)})).verdict(),
            VerdictKind::Refuted);
  // The fork edge is one-directional: the parent's *later* writes are not
  // ordered with the child.
  EXPECT_EQ(scanRaceLog(makeLog({fork(0, 1), wr(0, 7), wr(1, 7)}))
                .verdict(),
            VerdictKind::Refuted);
}

TEST(RaceLogDetect, ConcurrentReadersSpillAndAreCheckedOnWrite) {
  // Two unordered readers, then a write ordered after only one of them.
  std::vector<LogEvent> L = {rd(0, 7), rd(1, 7), rel(1, 2), acq(2, 2),
                             wr(2, 7)};
  RaceLogReport R = scanRaceLog(makeLog(L));
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].EventIndex, 4u);
  EXPECT_EQ(R.Races[0].PrevTid, 0u); // the reader the write misses
  EXPECT_FALSE(R.Races[0].PrevWrite);
  EXPECT_GE(R.Stats.ReadShares, 1u);

  // Ordered after both: race-free, and the spill collapses back.
  std::vector<LogEvent> Ok = {rd(0, 7), rel(0, 2), rd(1, 7), rel(1, 3),
                              acq(2, 2), acq(2, 3), wr(2, 7), rd(2, 7),
                              wr(2, 7)};
  EXPECT_EQ(scanRaceLog(makeLog(Ok)).verdict(), VerdictKind::Proved);
}

TEST(RaceLogDetect, FirstRacePerLocationAndExactRacyCount) {
  std::vector<LogEvent> L;
  for (uint32_t A = 0; A < 10; ++A) {
    L.push_back(wr(0, 1000 + A));
    L.push_back(wr(1, 1000 + A)); // race; later accesses don't re-report
    L.push_back(wr(2, 1000 + A));
  }
  RaceLogOptions O;
  O.MaxRaces = 4;
  RaceLogReport R = scanRaceLog(makeLog(L), O);
  EXPECT_EQ(R.Races.size(), 4u);            // capped
  EXPECT_EQ(R.Stats.RacyLocations, 10u);    // exact
  for (size_t I = 0; I < R.Races.size(); ++I) {
    EXPECT_EQ(R.Races[I].Addr, 1000 + I);
    EXPECT_EQ(R.Races[I].EventIndex, 3 * I + 1); // the *second* access
  }
}

//===----------------------------------------------------------------------===//
// Engine equivalence and configuration determinism
//===----------------------------------------------------------------------===//

TEST(RaceLogEngines, EpochAndOracleAgreeOnSynthWorkloads) {
  SynthOptions S;
  S.Events = 40000;
  S.Threads = 12;
  S.Locations = 512;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    S.Seed = Seed;
    for (const std::string &Log :
         {makeRaceFreeLog(S), makeMixedLog(S), makeLockHeavyLog(S)}) {
      RaceLogReport E = scanCfg(Log, 1, 1, /*Epochs=*/true);
      RaceLogReport V = scanCfg(Log, 1, 1, /*Epochs=*/false);
      EXPECT_EQ(keys(E), keys(V));
      EXPECT_EQ(E.Stats.RacyLocations, V.Stats.RacyLocations);
      EXPECT_EQ(E.Stats.Events, V.Stats.Events);
      EXPECT_EQ(E.verdict(), V.verdict());
    }
  }
}

TEST(RaceLogEngines, SynthMixesHaveTheAdvertisedRaceProfile) {
  SynthOptions S;
  S.Events = 30000;
  S.Threads = 8;
  S.Seed = 7;
  EXPECT_EQ(scanRaceLog(makeRaceFreeLog(S)).verdict(), VerdictKind::Proved);
  EXPECT_EQ(scanRaceLog(makeLockHeavyLog(S)).verdict(),
            VerdictKind::Proved);
  RaceLogReport M = scanRaceLog(makeMixedLog(S));
  EXPECT_EQ(M.verdict(), VerdictKind::Refuted);
  EXPECT_GT(M.Stats.RacyLocations, 0u);
}

TEST(RaceLogEngines, ShardAndWorkerConfigurationsAreBitIdentical) {
  SynthOptions S;
  S.Events = 30000;
  S.Threads = 16;
  S.Locations = 256;
  S.Seed = 11;
  for (const std::string &Log : {makeMixedLog(S), makeLockHeavyLog(S)}) {
    for (bool Epochs : {true, false}) {
      RaceLogReport Base = scanCfg(Log, 1, 1, Epochs);
      for (unsigned Shards : {2u, 4u, 8u}) {
        for (unsigned Workers : {1u, 2u, 4u}) {
          RaceLogReport R = scanCfg(Log, Shards, Workers, Epochs);
          EXPECT_EQ(Base.Races, R.Races)
              << "shards=" << Shards << " workers=" << Workers
              << " epochs=" << Epochs;
          EXPECT_EQ(Base.Stats.RacyLocations, R.Stats.RacyLocations);
          EXPECT_EQ(Base.Stats.ReadShares, R.Stats.ReadShares);
          EXPECT_EQ(Base.Stats.Events, R.Stats.Events);
          EXPECT_EQ(Base.Stats.Threads, R.Stats.Threads);
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Budget discipline
//===----------------------------------------------------------------------===//

TEST(RaceLogBudget, VisitCapTruncatesAndVisitedIsDeterministic) {
  SynthOptions S;
  S.Events = 20000;
  S.Seed = 3;
  std::string Log = makeMixedLog(S);
  BudgetSpec Spec;
  Spec.MaxVisited = 5000;
  std::vector<uint64_t> Seen;
  std::vector<std::vector<RaceRecord>> Races;
  for (unsigned Shards : {1u, 4u}) {
    for (unsigned Workers : {1u, 4u}) {
      Budget B(Spec);
      RaceLogOptions O;
      O.Shards = Shards;
      O.Workers = Workers;
      O.Shared = &B;
      RaceLogReport R = scanRaceLog(Log, O);
      EXPECT_TRUE(R.Stats.Truncated);
      EXPECT_EQ(R.Stats.Reason, TruncationReason::StateCap);
      // One visit per ingested event (the final, refused charge consumes
      // one more index), so the charge stream is identical for every
      // configuration — the daemon's idempotent-replay contract.
      EXPECT_EQ(R.Stats.Events + 1, B.visited());
      Seen.push_back(B.visited());
      // The charged prefix is detected in full, whatever the split.
      Races.push_back(R.Races);
    }
  }
  for (size_t I = 1; I < Seen.size(); ++I) {
    EXPECT_EQ(Seen[0], Seen[I]);
    EXPECT_EQ(Races[0], Races[I]);
  }
}

TEST(RaceLogBudget, UnbudgetedScanIsUnbounded) {
  SynthOptions S;
  S.Events = 5000;
  std::string Log = makeRaceFreeLog(S);
  RaceLogReport R = scanRaceLog(Log);
  EXPECT_FALSE(R.Stats.Truncated);
  EXPECT_GE(R.Stats.Events, S.Events);
}

TEST(RaceLogBudget, MemoryGrowthIsCharged) {
  SynthOptions S;
  S.Events = 20000;
  S.Locations = 4096;
  std::string Log = makeMixedLog(S);
  Budget B(BudgetSpec{});
  RaceLogOptions O;
  O.Shared = &B;
  scanRaceLog(Log, O);
  // State tables and clock spills grew; their real sizes were charged.
  EXPECT_GT(B.chargedBytes(), 0u);
}

TEST(RaceLogBudget, MemoryCapRaisedDuringDetectionTruncates) {
  SynthOptions S;
  S.Events = 200000;
  S.Seed = 5;
  std::string Log = makeMixedLog(S);
  const uint64_t Total = scanRaceLog(Log).Stats.Events;
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 1; // the first table growth or spill exhausts it
  for (unsigned Width : {1u, 4u}) {
    Budget B(Spec);
    RaceLogOptions O;
    O.Shards = Width;
    O.Workers = Width;
    O.Shared = &B;
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::MemoryCap);
    EXPECT_LT(R.Stats.Events, Total);
    if (Width == 1) {
      // Blocks are charged and detected in turn: the next block's first
      // charge sees the sticky exhaustion before it takes a visit.
      EXPECT_EQ(R.Stats.Events, B.visited());
    } else {
      // The ingest charged every event before detection raised the cap;
      // Events counts only whole blocks every task got through.
      EXPECT_EQ(B.visited(), Total);
      EXPECT_EQ(R.Stats.Events % DefaultEventsPerBlock, 0u);
    }
  }
}

TEST(RaceLogBudget, CancelTruncatesAndDetectsTheChargedPrefix) {
  SynthOptions S;
  S.Events = 20000;
  S.Seed = 3;
  std::string Log = makeMixedLog(S);
  CancelToken Tok;
  Tok.request();
  std::vector<RaceLogReport> Out;
  for (unsigned Width : {1u, 4u}) {
    Budget B(BudgetSpec{}, &Tok);
    RaceLogOptions O;
    O.Shards = Width;
    O.Workers = Width;
    O.MaxRaces = 1 << 20;
    O.Shared = &B;
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::Cancelled);
    // The token is seen at the first clock check, visit 256; the refused
    // charge is the only visit not counted as an event.
    EXPECT_EQ(R.Stats.Events + 1, B.visited());
    EXPECT_EQ(B.visited(), 256u);
    Out.push_back(R);
  }
  EXPECT_EQ(Out[0].Races, Out[1].Races);
  EXPECT_EQ(Out[0].Stats.Threads, Out[1].Stats.Threads);
}

//===----------------------------------------------------------------------===//
// Fault injection: containment and exact replay
//===----------------------------------------------------------------------===//

TEST(RaceLogFault, InjectedDetectFaultIsContainedAsUnknown) {
  SynthOptions S;
  S.Events = 20000;
  std::string Log = makeRaceFreeLog(S);
  FaultPlan Plan;
  Plan.arm(FaultSite::RaceDetect, /*FireAt=*/3);
  Budget B(BudgetSpec{});
  RaceLogOptions O;
  O.Shared = &B;
  {
    FaultPlan::Scope Armed(Plan);
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::EngineFault);
    EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
  }
  // The budget was poisoned so sibling engines of the query unwind too.
  EXPECT_EQ(B.reason(), TruncationReason::EngineFault);
  EXPECT_EQ(Plan.fired(FaultSite::RaceDetect), 1u);
  EXPECT_EQ(Plan.hits(FaultSite::RaceDetect), 3u); // fired on block 3

  // Exact replay: the same (plan, log) pair fires at the same hit.
  FaultPlan Replay;
  Replay.arm(FaultSite::RaceDetect, 3);
  {
    FaultPlan::Scope Armed(Replay);
    scanRaceLog(Log);
  }
  EXPECT_EQ(Replay.hits(FaultSite::RaceDetect), 3u);
  // And the engine is immediately reusable after containment.
  EXPECT_EQ(scanRaceLog(Log).verdict(), VerdictKind::Proved);
}

TEST(RaceLogFault, DetectFaultReplaysExactlyOnThePooledPath) {
  SynthOptions S;
  S.Events = 200000; // ~49 blocks: a probe run from the parallel block
                     // checks would show extra hits
  std::string Log = makeRaceFreeLog(S);
  RaceLogOptions O;
  O.Shards = 4;
  O.Workers = 4;
  for (int Round = 0; Round < 2; ++Round) {
    FaultPlan Plan;
    Plan.arm(FaultSite::RaceDetect, /*FireAt=*/3);
    FaultPlan::Scope Armed(Plan);
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::EngineFault);
    EXPECT_EQ(Plan.fired(FaultSite::RaceDetect), 1u);
    EXPECT_EQ(Plan.hits(FaultSite::RaceDetect), 3u);
  }
  // A plan that never fires counts one hit per block.
  FaultPlan Count;
  Count.arm(FaultSite::RaceDetect, /*FireAt=*/1u << 30);
  {
    FaultPlan::Scope Armed(Count);
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_EQ(R.verdict(), VerdictKind::Proved);
    EXPECT_EQ(Count.hits(FaultSite::RaceDetect), R.Stats.Blocks);
  }
}

TEST(RaceLogFault, ReportStrMentionsTheOutcome) {
  EXPECT_NE(scanRaceLog(makeLog({wr(0, 7), wr(1, 7)})).str().find("races:"),
            std::string::npos);
  EXPECT_NE(scanRaceLog(makeLog({})).str().find("race-free"),
            std::string::npos);
  EXPECT_NE(scanRaceLog("garbage-not-a-log-012345").str().find("bad-log"),
            std::string::npos);
}

} // namespace
