#include "support/Intern.h"

#include "support/Failure.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

using namespace tracesafe;

namespace {

inline uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Exponentially sized stable storage: chunk I holds 64<<I items, so 32
/// chunk pointers cover any uint32 index and an item, once written, never
/// moves. Readers locate chunks through atomic pointers; writers allocate
/// under the owner's lock and publish with a release store.
constexpr unsigned StableBaseLog = 6; // first chunk: 64 items
constexpr unsigned StableChunks = 32;

inline unsigned stableChunkOf(uint32_t Idx) {
  return std::bit_width((Idx >> StableBaseLog) + 1) - 1;
}
inline uint32_t stableBaseOf(unsigned Chunk) {
  return (uint32_t{64} << Chunk) - 64;
}
inline size_t stableCapOf(unsigned Chunk) { return size_t{64} << Chunk; }

} // namespace

uint64_t InternPool::hashWords(const uint64_t *Words, size_t N) {
  uint64_t H = 0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(N) << 1);
  for (size_t I = 0; I < N; ++I)
    H = mix64(H ^ Words[I]);
  return H;
}

struct InternPool::Shard {
  /// Span storage grows geometrically: a query that interns a few hundred
  /// words per shard (a tiny program on a wide pool) allocates 2 KiB per
  /// shard it touches instead of 64 KiB. Chunks are not zero-filled.
  static constexpr size_t FirstChunkWords = 256;
  static constexpr size_t MaxChunkWords = 1 << 13;

  struct Entry {
    const uint64_t *Ptr;
    uint32_t Len;
    uint64_t Hash;
  };

  /// Open-addressing slot table. Slots hold entry index + 1 (0 = empty)
  /// and are published with release stores, so a lock-free probe that
  /// loads a non-zero slot with acquire ordering sees the entry fully
  /// written. Tables are immutable in size; growth swaps in a bigger one
  /// and retires (but never frees) the old, so a racing reader's probe
  /// stays within valid memory.
  struct Table {
    size_t Mask;
    std::unique_ptr<std::atomic<uint32_t>[]> Slots;
    explicit Table(size_t N) : Mask(N - 1), Slots(new std::atomic<uint32_t>[N]) {
      for (size_t I = 0; I < N; ++I)
        Slots[I].store(0, std::memory_order_relaxed);
    }
    size_t size() const { return Mask + 1; }
  };

  mutable std::mutex M;
  std::atomic<Table *> Live;
  std::vector<std::unique_ptr<Table>> Retired; // all tables, incl. live
  std::array<std::atomic<Entry *>, StableChunks> EntryChunks{};
  std::vector<std::unique_ptr<uint64_t[]>> WordChunks;
  size_t ChunkUsed = 0; ///< words used in WordChunks.back(); <= ChunkCap
  size_t ChunkCap = 0;  ///< size of WordChunks.back() (0: none yet)
  size_t NextChunkWords = FirstChunkWords;
  std::atomic<uint32_t> Count{0};
  std::atomic<uint64_t> Bytes{0};

  Shard() {
    auto T = std::make_unique<Table>(64);
    Bytes.fetch_add(T->size() * sizeof(std::atomic<uint32_t>),
                    std::memory_order_relaxed);
    Live.store(T.get(), std::memory_order_release);
    Retired.push_back(std::move(T));
  }

  Entry &entryAt(uint32_t Idx) const {
    unsigned C = stableChunkOf(Idx);
    return EntryChunks[C].load(std::memory_order_acquire)[Idx -
                                                          stableBaseOf(C)];
  }

  /// Ensures storage for entry \p Idx exists. Lock held.
  Entry &entrySlotForWrite(uint32_t Idx, uint64_t &Charged) {
    unsigned C = stableChunkOf(Idx);
    Entry *Chunk = EntryChunks[C].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = new Entry[stableCapOf(C)];
      Charged += stableCapOf(C) * sizeof(Entry);
      Bytes.fetch_add(stableCapOf(C) * sizeof(Entry),
                      std::memory_order_relaxed);
      EntryChunks[C].store(Chunk, std::memory_order_release);
    }
    return Chunk[Idx - stableBaseOf(C)];
  }

  const uint64_t *store(const uint64_t *Words, size_t N, uint64_t &Charged) {
    if (N == 0) { // e.g. the empty sleep-set signature
      static const uint64_t Dummy = 0;
      return &Dummy;
    }
    if (N > ChunkCap - ChunkUsed) {
      // A span longer than the next chunk gets a chunk of its own size,
      // which it fills; the following span opens a fresh chunk.
      size_t Cap = std::max(N, NextChunkWords);
      NextChunkWords = std::min(NextChunkWords * 2, MaxChunkWords);
      WordChunks.push_back(std::make_unique_for_overwrite<uint64_t[]>(Cap));
      ChunkUsed = 0;
      ChunkCap = Cap;
      Charged += Cap * sizeof(uint64_t);
      Bytes.fetch_add(Cap * sizeof(uint64_t), std::memory_order_relaxed);
    }
    uint64_t *Dst = WordChunks.back().get() + ChunkUsed;
    std::memcpy(Dst, Words, N * sizeof(uint64_t));
    ChunkUsed += N;
    return Dst;
  }

  /// \p ShardBits must match the probe-start computation in intern():
  /// lookups begin at (Hash >> ShardBits) & Mask, so the rehash must too,
  /// or post-growth probes miss existing entries and intern duplicates.
  /// Lock held; the old table stays retired for racing readers.
  void growTable(unsigned ShardBits, uint64_t &Charged) {
    Table *Old = Live.load(std::memory_order_relaxed);
    auto Next = std::make_unique<Table>(Old->size() * 2);
    Charged += Next->size() * sizeof(std::atomic<uint32_t>);
    Bytes.fetch_add(Next->size() * sizeof(std::atomic<uint32_t>),
                    std::memory_order_relaxed);
    size_t Mask = Next->Mask;
    for (size_t I = 0; I <= Old->Mask; ++I) {
      uint32_t V = Old->Slots[I].load(std::memory_order_relaxed);
      if (!V)
        continue;
      size_t J = (entryAt(V - 1).Hash >> ShardBits) & Mask;
      while (Next->Slots[J].load(std::memory_order_relaxed))
        J = (J + 1) & Mask;
      Next->Slots[J].store(V, std::memory_order_relaxed);
    }
    Live.store(Next.get(), std::memory_order_release);
    Retired.push_back(std::move(Next));
  }

  ~Shard() {
    for (auto &C : EntryChunks)
      delete[] C.load(std::memory_order_relaxed);
  }
};

namespace {

/// Per-thread cache of recently interned spans. One direct-mapped line
/// per low hash byte; entries are validated against the pool by word
/// compare. Each line carries the never-reused generation of the pool it
/// came from, so a line from a dead pool (or a different live one) misses
/// instead of aliasing. Tagging lines rather than the whole cache lets a
/// thread alternate between pools (the engines intern every state into
/// one pool and its sleep signature into another) without wiping the
/// cache on every switch.
struct FrontCache {
  struct Line {
    uint64_t Gen = 0;
    uint64_t Hash = 0;
    uint32_t Id = 0;
    uint32_t Len = 0;
  };
  std::array<Line, 256> Lines;
};

thread_local FrontCache TlsFront;

std::atomic<uint64_t> NextGeneration{1};

} // namespace

unsigned InternPool::shardBitsFor(unsigned Workers) {
  if (Workers <= 1)
    return 0;
  return std::min(6u, static_cast<unsigned>(std::bit_width(4 * Workers - 1)));
}

InternPool::InternPool(unsigned ShardBits, Budget *Shared)
    : ShardBits(ShardBits),
      Generation(NextGeneration.fetch_add(1, std::memory_order_relaxed)),
      Shared(Shared) {
  Shards.reserve(1u << ShardBits);
  for (size_t I = 0; I < (1u << ShardBits); ++I)
    Shards.push_back(std::make_unique<Shard>());
}

InternPool::~InternPool() = default;

InternPool::Result InternPool::intern(const uint64_t *Words, size_t N) {
  // Fault-injection site: simulated allocation failure, thrown before any
  // shard state is touched so the pool stays consistent. The engines
  // contain it at their query boundary as Unknown(EngineFault).
  faultThrowBadAlloc(FaultSite::InternAlloc);
  uint64_t Hash = hashWords(Words, N);

  // Front cache: a hit here touches no shared cache line at all.
  FrontCache::Line &L = TlsFront.Lines[Hash & 0xFF];
  if (L.Gen == Generation && L.Hash == Hash && L.Len == N) {
    auto [Ptr, Len] = view(L.Id);
    if (Len == N && (N == 0 || std::memcmp(Ptr, Words, N * 8) == 0))
      return {L.Id, false};
  }

  Shard &S = *Shards[Hash & ((1u << ShardBits) - 1)];

  // Lock-free probe of the live table. A hit is authoritative (slots are
  // published after their entry is fully written); a miss may be stale,
  // so it falls through to the locked path.
  {
    Shard::Table *T = S.Live.load(std::memory_order_acquire);
    size_t Mask = T->Mask;
    size_t I = (Hash >> ShardBits) & Mask;
    while (uint32_t V = T->Slots[I].load(std::memory_order_acquire)) {
      const Shard::Entry &E = S.entryAt(V - 1);
      if (E.Hash == Hash && E.Len == N &&
          (N == 0 || std::memcmp(E.Ptr, Words, N * sizeof(uint64_t)) == 0)) {
        uint32_t Id = ((V - 1) << ShardBits) |
                      static_cast<uint32_t>(Hash & ((1u << ShardBits) - 1));
        L = {Generation, Hash, Id, static_cast<uint32_t>(N)};
        return {Id, false};
      }
      I = (I + 1) & Mask;
    }
  }

  std::lock_guard<std::mutex> Lock(S.M);
  Shard::Table *T = S.Live.load(std::memory_order_relaxed);
  size_t Mask = T->Mask;
  size_t I = (Hash >> ShardBits) & Mask;
  while (uint32_t V = T->Slots[I].load(std::memory_order_relaxed)) {
    const Shard::Entry &E = S.entryAt(V - 1);
    if (E.Hash == Hash && E.Len == N &&
        (N == 0 || std::memcmp(E.Ptr, Words, N * sizeof(uint64_t)) == 0)) {
      uint32_t Id = ((V - 1) << ShardBits) |
                    static_cast<uint32_t>(Hash & ((1u << ShardBits) - 1));
      L = {Generation, Hash, Id, static_cast<uint32_t>(N)};
      return {Id, false};
    }
    I = (I + 1) & Mask;
  }
  uint64_t Charged = 0;
  const uint64_t *Ptr = S.store(Words, N, Charged);
  uint32_t Idx = S.Count.load(std::memory_order_relaxed);
  Shard::Entry &E = S.entrySlotForWrite(Idx, Charged);
  E = {Ptr, static_cast<uint32_t>(N), Hash};
  // Publish: entry before slot, slot before count.
  T->Slots[I].store(Idx + 1, std::memory_order_release);
  S.Count.store(Idx + 1, std::memory_order_release);
  // Grow at ~70% load so probe sequences stay short.
  if ((Idx + 1) * 10 > T->size() * 7)
    S.growTable(ShardBits, Charged);
  if (Shared && Charged)
    Shared->chargeBytes(Charged);
  uint32_t Id = (Idx << ShardBits) |
                static_cast<uint32_t>(Hash & ((1u << ShardBits) - 1));
  L = {Generation, Hash, Id, static_cast<uint32_t>(N)};
  return {Id, true};
}

std::pair<const uint64_t *, uint32_t> InternPool::view(uint32_t Id) const {
  const Shard &S = *Shards[Id & ((1u << ShardBits) - 1)];
  const Shard::Entry &E = S.entryAt(Id >> ShardBits);
  return {E.Ptr, E.Len};
}

size_t InternPool::size() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->Count.load(std::memory_order_acquire);
  return N;
}

uint64_t InternPool::bytes() const {
  uint64_t N = 0;
  for (const auto &S : Shards)
    N += S->Bytes.load(std::memory_order_relaxed);
  return N;
}

namespace {

/// Both signatures are sorted event-id spans; subset by two-pointer walk.
bool sigSubset(const uint64_t *A, uint32_t An, const uint64_t *B,
               uint32_t Bn) {
  if (An > Bn)
    return false;
  uint32_t J = 0;
  for (uint32_t I = 0; I < An; ++I) {
    while (J < Bn && B[J] < A[I])
      ++J;
    if (J == Bn || B[J] != A[I])
      return false;
    ++J;
  }
  return true;
}

} // namespace

struct SleepMemo::Shard {
  /// A cell packs {state key, head record index + 1} into one atomic
  /// word, so lock-free readers see key and chain head consistently.
  static constexpr uint32_t EmptyKey = 0xFFFFFFFFu;
  static uint64_t packCell(uint32_t Key, uint32_t Head) {
    return static_cast<uint64_t>(Head) << 32 | Key;
  }

  struct Record {
    uint32_t Sig;
    std::atomic<uint32_t> Next; ///< record index + 1; 0 = end
  };

  struct Table {
    size_t Mask;
    std::unique_ptr<std::atomic<uint64_t>[]> Cells;
    explicit Table(size_t N)
        : Mask(N - 1), Cells(new std::atomic<uint64_t>[N]) {
      for (size_t I = 0; I < N; ++I)
        Cells[I].store(packCell(EmptyKey, 0), std::memory_order_relaxed);
    }
    size_t size() const { return Mask + 1; }
  };

  std::mutex M;
  std::atomic<Table *> Live;
  std::vector<std::unique_ptr<Table>> Retired;
  std::array<std::atomic<Record *>, StableChunks> RecordChunks{};
  uint32_t RecordCount = 0; // written under lock only
  size_t Used = 0;
  std::atomic<uint64_t> Bytes{0};

  Shard() {
    auto T = std::make_unique<Table>(64);
    Bytes.fetch_add(T->size() * sizeof(std::atomic<uint64_t>),
                    std::memory_order_relaxed);
    Live.store(T.get(), std::memory_order_release);
    Retired.push_back(std::move(T));
  }

  Record &recordAt(uint32_t Idx) const {
    unsigned C = stableChunkOf(Idx);
    return RecordChunks[C].load(std::memory_order_acquire)[Idx -
                                                           stableBaseOf(C)];
  }

  Record &recordSlotForWrite(uint32_t Idx, uint64_t &Charged) {
    unsigned C = stableChunkOf(Idx);
    Record *Chunk = RecordChunks[C].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = new Record[stableCapOf(C)];
      Charged += stableCapOf(C) * sizeof(Record);
      Bytes.fetch_add(stableCapOf(C) * sizeof(Record),
                      std::memory_order_relaxed);
      RecordChunks[C].store(Chunk, std::memory_order_release);
    }
    return Chunk[Idx - stableBaseOf(C)];
  }

  /// Probes \p T for \p Key. Returns the cell index holding the key or an
  /// empty cell (insertion point when probing the live table under lock).
  size_t probe(Table *T, uint32_t Key) const {
    size_t Mask = T->Mask;
    size_t I = mix64(Key) & Mask;
    while (true) {
      uint32_t K = static_cast<uint32_t>(
          T->Cells[I].load(std::memory_order_acquire));
      if (K == EmptyKey || K == Key)
        return I;
      I = (I + 1) & Mask;
    }
  }

  void growTable(uint64_t &Charged) {
    Table *Old = Live.load(std::memory_order_relaxed);
    auto Next = std::make_unique<Table>(Old->size() * 2);
    Charged += Next->size() * sizeof(std::atomic<uint64_t>);
    Bytes.fetch_add(Next->size() * sizeof(std::atomic<uint64_t>),
                    std::memory_order_relaxed);
    for (size_t I = 0; I <= Old->Mask; ++I) {
      uint64_t Cell = Old->Cells[I].load(std::memory_order_relaxed);
      uint32_t Key = static_cast<uint32_t>(Cell);
      if (Key == EmptyKey)
        continue;
      Next->Cells[probe(Next.get(), Key)].store(Cell,
                                                std::memory_order_relaxed);
    }
    Live.store(Next.get(), std::memory_order_release);
    Retired.push_back(std::move(Next));
  }

  ~Shard() {
    for (auto &C : RecordChunks)
      delete[] C.load(std::memory_order_relaxed);
  }
};

SleepMemo::SleepMemo(unsigned ShardBits, const InternPool &Sigs,
                     Budget *Shared)
    : ShardBits(ShardBits), Sigs(Sigs), Shared(Shared) {
  Shards.reserve(1u << ShardBits);
  for (size_t I = 0; I < (1u << ShardBits); ++I)
    Shards.push_back(std::make_unique<Shard>());
}

SleepMemo::~SleepMemo() = default;

bool SleepMemo::shouldExplore(uint32_t StateId, uint32_t SigId) {
  Shard &S = *Shards[mix64(StateId) & ((1u << ShardBits) - 1)];
  auto [CurPtr, CurLen] = Sigs.view(SigId);

  // Lock-free prune check. Only the negative (prune) answer may be
  // produced here: every record ever linked names a visit that really
  // recorded that sleep set, so a subset hit through a stale table or a
  // concurrently unlinked record is still a sound reason to prune. "No
  // subset found" can be stale, so it falls to the locked re-check.
  {
    Shard::Table *T = S.Live.load(std::memory_order_acquire);
    uint64_t Cell =
        T->Cells[S.probe(T, StateId)].load(std::memory_order_acquire);
    if (static_cast<uint32_t>(Cell) == StateId) {
      uint32_t Link = static_cast<uint32_t>(Cell >> 32);
      while (Link) {
        const Shard::Record &R = S.recordAt(Link - 1);
        if (R.Sig == SigId)
          return false;
        auto [RecPtr, RecLen] = Sigs.view(R.Sig);
        if (sigSubset(RecPtr, RecLen, CurPtr, CurLen))
          return false;
        Link = R.Next.load(std::memory_order_acquire);
      }
    }
  }

  std::lock_guard<std::mutex> Lock(S.M);
  uint64_t Charged = 0;
  Shard::Table *T = S.Live.load(std::memory_order_relaxed);
  size_t CellIdx = S.probe(T, StateId);
  uint64_t Cell = T->Cells[CellIdx].load(std::memory_order_relaxed);
  uint32_t Head = 0;
  if (static_cast<uint32_t>(Cell) == Shard::EmptyKey) {
    ++S.Used;
  } else {
    // Prune iff a recorded sleep set is a subset of the current one: that
    // visit explored every transition this visit would. While walking,
    // unlink records dominated by (strict supersets of) the new set.
    Head = static_cast<uint32_t>(Cell >> 32);
    std::atomic<uint32_t> *LinkSlot = nullptr; // null: head lives in Cell
    uint32_t Link = Head;
    while (Link) {
      Shard::Record &R = S.recordAt(Link - 1);
      uint32_t NextLink = R.Next.load(std::memory_order_relaxed);
      if (R.Sig == SigId)
        return false;
      auto [RecPtr, RecLen] = Sigs.view(R.Sig);
      if (sigSubset(RecPtr, RecLen, CurPtr, CurLen))
        return false;
      if (sigSubset(CurPtr, CurLen, RecPtr, RecLen)) {
        // Dominated: the new record covers it. Unlink in place; racing
        // lock-free readers may still traverse the old link, which is
        // harmless (the record stays valid and sound).
        if (LinkSlot)
          LinkSlot->store(NextLink, std::memory_order_release);
        else
          Head = NextLink;
      } else {
        LinkSlot = &R.Next;
      }
      Link = NextLink;
    }
  }
  uint32_t Idx = S.RecordCount;
  Shard::Record &NewRec = S.recordSlotForWrite(Idx, Charged);
  NewRec.Sig = SigId;
  NewRec.Next.store(Head, std::memory_order_relaxed);
  S.RecordCount = Idx + 1;
  // Publish the record before linking it as the cell head.
  T->Cells[CellIdx].store(Shard::packCell(StateId, Idx + 1),
                          std::memory_order_release);
  if (S.Used * 10 > T->size() * 7)
    S.growTable(Charged);
  if (Shared && Charged)
    Shared->chargeBytes(Charged);
  return true;
}

uint64_t SleepMemo::bytes() const {
  uint64_t N = 0;
  for (const auto &S : Shards)
    N += S->Bytes.load(std::memory_order_relaxed);
  return N;
}
