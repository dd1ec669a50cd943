//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming happens-before race detection over binary event logs.
///
/// scanRaceLog ingests a TSRL log (racelog/Log.h) and answers the paper's
/// §3 happens-before race question for the *observed* execution: is there
/// a pair of conflicting accesses unordered by program order + release/
/// acquire synchronisation? This is the production-scale counterpart of
/// the enumerative checker in trace/HappensBefore.cpp — one trace of an
/// arbitrarily large program instead of every trace of a tiny one — and
/// the two are differentially tested against each other on every
/// interleaving the enumerator can produce (tests/test_racelog_
/// differential.cpp).
///
/// Two engines share the per-variable state machine:
///  - the epoch engine (default; FastTrack-style): the last write and, in
///    the common case, the last read are scalar (tid, clock) epochs; a
///    full read vector clock is allocated only once a variable is read
///    concurrently. O(1) per access on race-free same-thread runs.
///  - the full-vector-clock oracle (Options.Epochs = false; DJIT+-style):
///    every variable carries a whole read vector clock and every write
///    scans it. The simple engine the epoch optimisation is checked
///    against — same racy-location set, same first racy event per
///    location, by the FastTrack equivalence argument (docs/
///    PERFORMANCE.md).
///
/// Sharding: the clock pass is replicated, the accesses partitioned. The
/// ingest checks block CRCs and records (in parallel unless Workers = 1,
/// which checks and detects each block in turn), cuts the valid prefix at
/// the first bad block, and probes FaultSite::RaceDetect once per block
/// and charges one visit per event, in log order. Each detect task
/// replays every sync event with its own clocks and runs the state
/// machine only for addresses hashing into its own shards, so verdicts
/// are identical for every shard count and worker width. A visit cap ends
/// the ingest and the charged prefix is detected in full; an exhaustion
/// during detection stops every task within one block, and Stats.Events
/// then counts only events every task processed.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_RACELOG_DETECT_H
#define TRACESAFE_RACELOG_DETECT_H

#include "racelog/Log.h"
#include "support/Budget.h"

#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {
namespace racelog {

struct RaceLogOptions {
  /// Address shards for the detect step (rounded up to a power of two,
  /// clamped to [1, 64]). 1 = one state table.
  unsigned Shards = 1;
  /// 1 = one detect task in the calling thread; N > 1 = block checks and
  /// one detect task per shard, at most N, on the shared ThreadPool (0 =
  /// the pool's width). Verdicts are identical for every width.
  unsigned Workers = 1;
  /// False selects the full-vector-clock oracle engine.
  bool Epochs = true;
  /// Cap on reported RaceRecords (the racy-location *count* in Stats is
  /// always exact). Races are reported first-per-location in log order.
  size_t MaxRaces = 64;
  /// Optional shared query budget. One visit is charged per ingested
  /// event (identically for every engine/shard configuration, so a
  /// query's Visited is deterministic); state-table and clock-arena
  /// growth charge real byte sizes.
  Budget *Shared = nullptr;
};

/// The first race on one location: the earliest access to Addr that is
/// unordered with some prior conflicting access.
struct RaceRecord {
  uint64_t Addr = 0;
  uint64_t EventIndex = 0; ///< log index (0-based) of the racing access
  uint32_t Tid = 0;        ///< thread of the racing access
  uint32_t PrevTid = 0;    ///< thread of the prior conflicting access
  bool Write = false;      ///< the racing access is a write
  bool PrevWrite = false;  ///< the prior access was a write

  friend bool operator==(const RaceRecord &, const RaceRecord &) = default;
};

struct RaceLogStats {
  uint64_t Events = 0;      ///< events every detect task processed
  uint64_t Blocks = 0;
  uint64_t PayloadBytes = 0;///< record bytes scanned
  uint64_t Threads = 0;     ///< distinct tids seen
  uint64_t RacyLocations = 0; ///< exact count of racy addresses
  uint64_t ReadShares = 0;  ///< epoch engine: reads spilled to full clocks
  bool TornTail = false;    ///< a torn/corrupt tail was dropped
  uint64_t DroppedBytes = 0;
  bool Truncated = false;
  TruncationReason Reason = TruncationReason::None;
};

struct RaceLogReport {
  /// False when the file header is unusable (not a log at all — distinct
  /// from a torn tail, which still yields a verdict on the valid prefix).
  bool FormatOk = true;
  std::string FormatError;
  /// First race per racy location, sorted by EventIndex, capped at
  /// Options.MaxRaces.
  std::vector<RaceRecord> Races;
  RaceLogStats Stats;

  /// Refuted = races found (definitive even under truncation); Proved =
  /// the *complete* log scanned race-free; Unknown = unusable header,
  /// truncated scan, or a torn tail (a race-free valid prefix proves
  /// nothing about the events the recorder lost).
  VerdictKind verdict() const {
    if (!Races.empty())
      return VerdictKind::Refuted;
    if (!FormatOk || Stats.Truncated || Stats.TornTail)
      return VerdictKind::Unknown;
    return VerdictKind::Proved;
  }

  /// One-line summary ("race-free events=..." / "races=... first=...").
  std::string str() const;
};

/// Scans \p LogBytes (a whole TSRL log image). Never throws: engine
/// faults — including the FaultSite::RaceDetect injection point, probed
/// once per block — are contained as Unknown(EngineFault), mirroring the
/// enumeration engines' robustness contract.
RaceLogReport scanRaceLog(std::string_view LogBytes,
                          const RaceLogOptions &Options = {});

} // namespace racelog
} // namespace tracesafe

#endif // TRACESAFE_RACELOG_DETECT_H
