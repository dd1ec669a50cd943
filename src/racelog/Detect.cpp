#include "racelog/Detect.h"

#include "support/Failure.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <unordered_map>

using namespace tracesafe;
using namespace tracesafe::racelog;

//===----------------------------------------------------------------------===//
// Epochs and clocks
//===----------------------------------------------------------------------===//

namespace {

/// An epoch packs (tid, clock) into one u64: tid in the top 16 bits (wire
/// tids are u16), clock below. Clocks count releases/forks/joins of one
/// thread, so they stay far under 2^48. Epoch 0 means "none": a live
/// thread's clock starts at 1.
using Epoch = uint64_t;
constexpr uint64_t ClkMask = (1ULL << 48) - 1;

inline Epoch mkEpoch(uint32_t Tid, uint64_t Clk) {
  return (static_cast<uint64_t>(Tid) << 48) | Clk;
}
inline uint32_t epochTid(Epoch E) { return static_cast<uint32_t>(E >> 48); }
inline uint64_t epochClk(Epoch E) { return E & ClkMask; }

inline uint64_t mixAddr(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Bump-pointer arena for clock storage (read-clock spills). Chunks never
/// move or shrink, spans are handed out zeroed, and real chunk sizes are
/// charged to the shared budget.
class ClockArena {
public:
  explicit ClockArena(Budget *B) : B(B) {}

  uint64_t *alloc(size_t N) {
    if (N > Cap - Used) {
      size_t M = std::max<size_t>(N, size_t(1) << 15);
      Chunks.push_back(std::make_unique<uint64_t[]>(M)); // value-init: zeroed
      Cap = M;
      Used = 0;
      if (B)
        B->chargeBytes(M * sizeof(uint64_t));
    }
    uint64_t *P = Chunks.back().get() + Used;
    Used += N;
    return P;
  }

private:
  std::vector<std::unique_ptr<uint64_t[]>> Chunks;
  size_t Cap = 0, Used = 0;
  Budget *B;
};

//===----------------------------------------------------------------------===//
// Per-shard variable state
//===----------------------------------------------------------------------===//

constexpr uint32_t NoSpill = ~0u;
constexpr uint32_t FlagUsed = 1;
constexpr uint32_t FlagRacy = 2;

/// One variable's detector state, inline in the open-addressing table so
/// the race-free fast path (probe, compare two epochs) touches one cache
/// line. 32 bytes.
struct Slot {
  uint64_t Addr = 0;
  Epoch W = 0;        ///< last-write epoch (0 = never written)
  Epoch R = 0;        ///< exclusive-read epoch (0 = none / spilled)
  uint32_t Spill = 0; ///< read-clock spill index (valid when FlagUsed set
                      ///< it; NoSpill = epochs only)
  uint32_t Flags = 0;
};

struct SpillVC {
  uint64_t *Clk = nullptr;
  uint32_t Len = 0;
};

/// The FastTrack / DJIT+ state machine for the addresses of one shard.
/// Accesses must arrive in log order per address; the caller guarantees
/// this (every detect task walks the log in order).
class ShardState {
public:
  ShardState(Budget *B, bool Epochs, size_t MaxRaces)
      : Arena(B), B(B), Epochs(Epochs), MaxRaces(MaxRaces) {
    Table.resize(1u << 12);
    Mask = Table.size() - 1;
  }

  /// \p H is mixAddr(Addr); \p Now is the accessing thread's vector
  /// clock, zero past its length (tids it has not heard of yet).
  void access(uint64_t Addr, uint64_t H, bool IsWrite, uint32_t Tid, Epoch E,
              const std::vector<uint64_t> &Now, uint64_t EventIndex) {
    auto C = [&Now](uint32_t T) { return T < Now.size() ? Now[T] : 0; };
    Slot &V = lookup(Addr, H);
    if (V.Flags & FlagRacy)
      return; // location already reported racy; nothing new to learn
    uint64_t Clk = epochClk(E);
    auto race = [&](uint32_t PrevTid, bool PrevWrite) {
      V.Flags |= FlagRacy;
      ++RacyLocations;
      if (Races.size() < MaxRaces)
        Races.push_back(
            {Addr, EventIndex, Tid, PrevTid, IsWrite, PrevWrite});
    };
    if (!IsWrite) {
      if (Epochs && V.R == E)
        return; // read same epoch: the dominant same-thread fast path
      if (V.W && epochClk(V.W) > C(epochTid(V.W)))
        return race(epochTid(V.W), /*PrevWrite=*/true);
      if (!Epochs) {
        // Oracle engine: the read clock is always a full vector.
        SpillVC &S = vcFor(V, Tid + 1);
        S.Clk[Tid] = Clk;
        return;
      }
      if (V.Spill != NoSpill) {
        SpillVC &S = vcFor(V, Tid + 1);
        S.Clk[Tid] = Clk;
        return;
      }
      if (!V.R || epochTid(V.R) == Tid ||
          epochClk(V.R) <= C(epochTid(V.R))) {
        // Exclusive read: same thread, or the previous read happens-
        // before this one (replacing it is sound by transitivity — any
        // later access ordered after this read is ordered after the
        // replaced one too).
        V.R = E;
        return;
      }
      // Two concurrent readers: spill to a full read clock (the rare
      // FastTrack promotion).
      ++ReadShares;
      uint32_t U = epochTid(V.R);
      uint64_t UClk = epochClk(V.R);
      V.R = 0;
      SpillVC &S = vcFor(V, std::max(U, Tid) + 1);
      S.Clk[U] = UClk;
      S.Clk[Tid] = Clk;
      return;
    }
    // Write.
    if (Epochs && V.W == E)
      return; // write same epoch: no release by Tid since the last write,
              // so no other thread can have ordered an access after it
    if (V.W && epochClk(V.W) > C(epochTid(V.W)))
      return race(epochTid(V.W), /*PrevWrite=*/true);
    if (V.Spill != NoSpill) {
      SpillVC &S = Spills[V.Spill];
      for (uint32_t U = 0; U < S.Len; ++U)
        if (S.Clk[U] > C(U))
          return race(U, /*PrevWrite=*/false);
      if (Epochs)
        V.Spill = NoSpill; // reads all ordered: back to epoch mode
      else
        std::fill_n(S.Clk, S.Len, 0); // oracle keeps the vector
    } else if (V.R && epochClk(V.R) > C(epochTid(V.R)))
      return race(epochTid(V.R), /*PrevWrite=*/false);
    V.W = E;
    V.R = 0;
  }

  /// Hints the cache that the slot of the address hashing to \p H is
  /// about to be probed. Issued for a whole window of accesses before
  /// their access() calls, so the (random-address) table misses overlap
  /// each other instead of stalling the state machine one by one.
  void prefetch(uint64_t H) const {
    __builtin_prefetch(&Table[H & Mask], 1, 3);
  }

  std::vector<RaceRecord> Races; ///< first race per location, log order
  uint64_t RacyLocations = 0;
  uint64_t ReadShares = 0;

private:
  Slot &lookup(uint64_t Addr, uint64_t H) {
    size_t I = H & Mask;
    for (;;) {
      Slot &V = Table[I];
      if (V.Flags & FlagUsed) {
        if (V.Addr == Addr)
          return V;
      } else {
        if ((Size + 1) * 10 >= Table.size() * 7) {
          grow();
          return lookup(Addr, H);
        }
        V.Addr = Addr;
        V.Flags = FlagUsed;
        V.Spill = NoSpill;
        ++Size;
        return V;
      }
      I = (I + 1) & Mask;
    }
  }

  void grow() {
    std::vector<Slot> Old(Table.size() * 2);
    Old.swap(Table);
    Mask = Table.size() - 1;
    if (B)
      B->chargeBytes(Table.size() * sizeof(Slot));
    for (Slot &V : Old) {
      if (!(V.Flags & FlagUsed))
        continue;
      size_t I = mixAddr(V.Addr) & Mask;
      while (Table[I].Flags & FlagUsed)
        I = (I + 1) & Mask;
      Table[I] = V;
    }
  }

  /// The read-clock spill of \p V, present and at least \p MinLen long.
  SpillVC &vcFor(Slot &V, uint32_t MinLen) {
    MinLen = (MinLen + 7u) & ~7u; // round up: tids cluster, avoid regrowth
    if (V.Spill == NoSpill) {
      V.Spill = static_cast<uint32_t>(Spills.size());
      Spills.push_back({Arena.alloc(MinLen), MinLen});
      return Spills.back();
    }
    SpillVC &S = Spills[V.Spill];
    if (S.Len < MinLen) {
      uint64_t *N = Arena.alloc(MinLen);
      std::copy_n(S.Clk, S.Len, N);
      S.Clk = N;
      S.Len = MinLen;
    }
    return S;
  }

  std::vector<Slot> Table;
  size_t Mask = 0, Size = 0;
  std::vector<SpillVC> Spills;
  ClockArena Arena;
  Budget *B;
  bool Epochs;
  size_t MaxRaces;
};

//===----------------------------------------------------------------------===//
// Live thread clocks (the sequential synchronisation pass)
//===----------------------------------------------------------------------===//

struct LiveClocks {
  std::vector<std::vector<uint64_t>> C; ///< per-tid vector clocks
  uint64_t Threads = 0;

  bool known(uint32_t T) const { return T < C.size() && !C[T].empty(); }

  void ensure(uint32_t T) {
    if (known(T))
      return;
    if (T >= C.size())
      C.resize(T + 1);
    C[T].resize(T + 1, 0);
    C[T][T] = 1;
    ++Threads;
  }

  void tick(uint32_t T) { ++C[T][T]; }
  Epoch epoch(uint32_t T) const { return mkEpoch(T, C[T][T]); }

  /// Dst |_|= Src.
  static void joinInto(std::vector<uint64_t> &Dst,
                       const std::vector<uint64_t> &Src) {
    if (Src.size() > Dst.size())
      Dst.resize(Src.size(), 0);
    for (size_t I = 0; I < Src.size(); ++I)
      Dst[I] = std::max(Dst[I], Src[I]);
  }
};

//===----------------------------------------------------------------------===//
// The scan: parallel ingest, replicated clock pass, partitioned accesses
//===----------------------------------------------------------------------===//

unsigned normalisedShards(unsigned Requested) {
  return std::bit_ceil(std::clamp(Requested, 1u, 64u));
}

/// Runs Fn(0) .. Fn(N - 1) as tasks on the shared pool (the waiting
/// caller helps), rethrowing the first task exception. A single task runs
/// on the calling thread.
template <typename F> void forTasks(unsigned N, const F &Fn) {
  if (N < 2) {
    for (unsigned I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  ThreadPool::TaskGroup G(ThreadPool::shared());
  for (unsigned I = 0; I < N; ++I)
    G.spawn([&Fn, I] { Fn(I); });
  G.wait();
  if (std::exception_ptr E = G.takeException())
    std::rethrow_exception(E);
}

/// One detect task. It replays every sync event of the log, in order,
/// with its own clocks and lock table, and runs the state machine only for
/// the accesses of its own shards, [Lo, Lo + Count) of Shards: together
/// the tasks make the state transitions of one inline scan. A shard is
/// chosen by the top ShardBits bits of the address hash (ShardState::
/// lookup uses the low bits, so the two stay independent).
class DetectTask {
public:
  DetectTask(const std::vector<std::unique_ptr<ShardState>> &Shards,
             unsigned ShardBits, unsigned Lo, unsigned Count)
      : Shards(Shards), ShardBits(ShardBits), Lo(Lo), Count(Count),
        // A window holds about 16 of the task's accesses: larger batches
        // of prefetches measured slower on the one-task scan.
        Span(std::min<size_t>(64, 16 * Shards.size() / Count)) {}

  /// Detects the next block of the prefix. Windows of records: hash every
  /// address and mark, without a branch, the records this task handles
  /// (sync events and its own accesses); prefetch the slots of the marked
  /// accesses so the table misses overlap; replay the marked records.
  void block(std::string_view P) {
    const size_t N = P.size() / EventRecordSize;
    for (size_t W0 = 0; W0 < N; W0 += Span) {
      const char *W = P.data() + W0 * EventRecordSize;
      auto isAccess = [W](unsigned R) {
        return static_cast<uint8_t>(W[R * EventRecordSize]) <=
               static_cast<uint8_t>(Op::Write);
      };
      uint64_t Marked = 0;
      for (unsigned R = 0, Len = std::min(Span, N - W0); R < Len; ++R) {
        uint16_t T;
        __builtin_memcpy(&T, W + R * EventRecordSize + 2, 2);
        if (!TC.known(T))
          TC.ensure(T); // every task sees every thread
        uint64_t A;
        __builtin_memcpy(&A, W + R * EventRecordSize + 8, 8);
        H[R] = mixAddr(A);
        Marked |= uint64_t(!isAccess(R) || of(H[R]) - Lo < Count) << R;
      }
      for (uint64_t M = Marked; M; M &= M - 1)
        if (unsigned R = __builtin_ctzll(M); isAccess(R))
          Shards[of(H[R])]->prefetch(H[R]);
      for (uint64_t M = Marked; M; M &= M - 1) {
        unsigned R = __builtin_ctzll(M);
        LogEvent E;
        decodeEvent(W + R * EventRecordSize, E);
        apply(E, H[R], Events + W0 + R);
      }
    }
    Events += N;
  }

  uint64_t Events = 0; ///< events detected so far
  LiveClocks TC;

private:
  unsigned of(uint64_t H) const { return (H >> 1) >> (63 - ShardBits); }

  void apply(const LogEvent &E, uint64_t H, uint64_t Idx) {
    switch (E.Kind) {
    case Op::Read:
    case Op::Write:
      Shards[of(H)]->access(E.Addr, H, E.Kind == Op::Write, E.Tid,
                            TC.epoch(E.Tid), TC.C[E.Tid], Idx);
      break;
    case Op::Acquire:
      if (auto It = Locks.find(E.Addr); It != Locks.end())
        LiveClocks::joinInto(TC.C[E.Tid], It->second);
      break;
    case Op::Release:
      // Join (not overwrite): §3 happens-before relates *any* earlier
      // release to a later acquire of the same lock id — volatiles are
      // lock ids too, with no mutual exclusion — so the lock clock
      // accumulates every releaser (the classic overwrite, for
      // well-nested monitors).
      LiveClocks::joinInto(Locks[E.Addr], TC.C[E.Tid]);
      TC.tick(E.Tid);
      break;
    case Op::Fork:
      TC.ensure(E.Target);
      LiveClocks::joinInto(TC.C[E.Target], TC.C[E.Tid]);
      TC.tick(E.Tid);
      break;
    case Op::Join:
      TC.ensure(E.Target);
      LiveClocks::joinInto(TC.C[E.Tid], TC.C[E.Target]);
      TC.tick(E.Target);
      break;
    }
  }

  const std::vector<std::unique_ptr<ShardState>> &Shards;
  unsigned ShardBits, Lo, Count;
  size_t Span;
  std::unordered_map<uint64_t, std::vector<uint64_t>> Locks;
  uint64_t H[64] = {}; ///< address hashes of the current window
};

RaceLogReport scanImpl(std::string_view Bytes, const RaceLogOptions &O) {
  RaceLogReport Rep;
  BlockCursor Cur(Bytes);
  if (!Cur.ok()) {
    Rep.FormatOk = false;
    Rep.FormatError = Cur.error();
    return Rep;
  }

  const unsigned NShards = normalisedShards(O.Shards);
  const unsigned Width =
      O.Workers ? O.Workers : ThreadPool::shared().workerCount();
  const bool Pooled = Width > 1;
  Budget *B = O.Shared;

  std::vector<std::unique_ptr<ShardState>> Shards;
  for (unsigned I = 0; I < NShards; ++I)
    Shards.push_back(std::make_unique<ShardState>(B, O.Epochs, O.MaxRaces));
  const unsigned Tasks = std::min(NShards, Width);
  std::vector<DetectTask> Det;
  for (unsigned T = 0; T < Tasks; ++T)
    Det.emplace_back(Shards, std::countr_zero(NShards), T * NShards / Tasks,
                     (T + 1) * NShards / Tasks - T * NShards / Tasks);

  // Ingest: walk the block headers; pooled, check every block's CRC and
  // records up front, in stripes across the tasks.
  struct Block {
    std::string_view Payload;
    uint32_t Crc = 0;
    bool Ok = false;
  };
  std::vector<Block> Blocks;
  for (std::string_view P = Cur.nextPayload(); !P.empty();
       P = Cur.nextPayload())
    Blocks.push_back({P, Cur.crc()});
  const unsigned Stripes =
      static_cast<unsigned>(std::min<size_t>(Width, Blocks.size()));
  if (Pooled)
    forTasks(Stripes, [&](unsigned T) {
      for (size_t I = T; I < Blocks.size(); I += Stripes)
        Blocks[I].Ok = validBlock(Blocks[I].Payload, Blocks[I].Crc);
    });

  // Then, in log order: cut the prefix at the first bad block, probe the
  // detect fault site once per block (so hit counters replay exactly from
  // (plan, log)) and charge one visit per event (so a query's Visited is
  // the same for every configuration). In the calling thread, each block
  // is checked and detected here while it is in cache.
  std::vector<std::string_view> Prefix;
  Budget::Scope Charge(B);
  for (Block &K : Blocks) {
    if (!Pooled)
      K.Ok = validBlock(K.Payload, K.Crc);
    if (!K.Ok) {
      Rep.Stats.TornTail = true;
      Rep.Stats.DroppedBytes = static_cast<uint64_t>(
          Bytes.data() + Bytes.size() - K.Payload.data() + BlockHeaderSize);
      break;
    }
    faultThrowInjected(FaultSite::RaceDetect);
    ++Rep.Stats.Blocks;
    Rep.Stats.PayloadBytes += K.Payload.size();
    const size_t Records = K.Payload.size() / EventRecordSize;
    size_t N = B ? 0 : Records;
    while (N < Records && Charge.charge())
      ++N;
    if (N < Records) {
      Rep.Stats.Truncated = true;
      Rep.Stats.Reason = B->reason();
    }
    std::string_view P = K.Payload.substr(0, N * EventRecordSize);
    if (Pooled)
      Prefix.push_back(P);
    else
      Det[0].block(P);
    Rep.Stats.Events += N;
    if (Rep.Stats.Truncated)
      break;
  }
  Charge.settle();
  if (!Rep.Stats.Truncated && !Rep.Stats.TornTail && Cur.tornTail()) {
    Rep.Stats.TornTail = true;
    Rep.Stats.DroppedBytes = Cur.droppedBytes();
  }

  // Pooled detect: every task walks the whole prefix. A prefix cut by the
  // ingest charges is detected in full; otherwise the tasks poll the
  // budget once per block.
  Budget *Poll = Rep.Stats.Truncated ? nullptr : B;
  if (Pooled)
    forTasks(Tasks, [&](unsigned T) {
      for (std::string_view P : Prefix) {
        if (Poll && !Poll->chargeBytes(0))
          break;
        Det[T].block(P);
      }
    });
  // Under a mid-detection stop, report only what every task got through.
  const DetectTask &Least = *std::min_element(
      Det.begin(), Det.end(), [](const DetectTask &A, const DetectTask &C) {
        return A.Events < C.Events;
      });
  if (Poll && Poll->exhausted()) {
    Rep.Stats.Truncated = true;
    Rep.Stats.Reason = Poll->reason();
    Rep.Stats.Events = Least.Events;
  }
  Rep.Stats.Threads = Least.TC.Threads;

  std::vector<RaceRecord> All;
  for (auto &S : Shards) {
    All.insert(All.end(), S->Races.begin(), S->Races.end());
    Rep.Stats.RacyLocations += S->RacyLocations;
    Rep.Stats.ReadShares += S->ReadShares;
  }
  std::sort(All.begin(), All.end(),
            [](const RaceRecord &A, const RaceRecord &B) {
              return A.EventIndex < B.EventIndex;
            });
  if (All.size() > O.MaxRaces)
    All.resize(O.MaxRaces);
  Rep.Races = std::move(All);
  return Rep;
}

} // namespace

RaceLogReport racelog::scanRaceLog(std::string_view LogBytes,
                                   const RaceLogOptions &Options) {
  try {
    return scanImpl(LogBytes, Options);
  } catch (...) {
    // Containment: a faulting scan (injected or genuine) is an Unknown
    // query, never a crash and never a fabricated verdict.
    if (Options.Shared)
      Options.Shared->poison(TruncationReason::EngineFault);
    RaceLogReport Rep;
    Rep.Stats.Truncated = true;
    Rep.Stats.Reason = TruncationReason::EngineFault;
    return Rep;
  }
}

std::string RaceLogReport::str() const {
  if (!FormatOk)
    return "bad-log: " + FormatError;
  std::string Out;
  if (Races.empty()) {
    Out = Stats.Truncated ? "undecided" : "race-free";
  } else {
    char Buf[128];
    const RaceRecord &F = Races.front();
    std::snprintf(Buf, sizeof(Buf),
                  "races: locations=%llu first=[addr=0x%llx event=%llu "
                  "%s(t%u) vs %s(t%u)]",
                  static_cast<unsigned long long>(Stats.RacyLocations),
                  static_cast<unsigned long long>(F.Addr),
                  static_cast<unsigned long long>(F.EventIndex),
                  F.PrevWrite ? "write" : "read", F.PrevTid,
                  F.Write ? "write" : "read", F.Tid);
    Out = Buf;
  }
  Out += " events=" + std::to_string(Stats.Events) +
         " threads=" + std::to_string(Stats.Threads);
  if (Stats.TornTail)
    Out += " torn-tail dropped=" + std::to_string(Stats.DroppedBytes);
  if (Stats.Truncated)
    Out += std::string(" truncated=") + truncationReasonName(Stats.Reason);
  return Out;
}
