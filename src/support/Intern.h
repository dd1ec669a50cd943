//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed interning of word spans, and the sleep-set memo table.
///
/// The parallel enumeration engine encodes every global search state as a
/// short span of uint64 words (per-thread trace ids, memory, lock state,
/// behaviour tail) and interns it: the first occurrence of a span gets a
/// dense uint32 id, later occurrences find the id by hash. Interning
/// replaces the seed engine's std::set<StateKey> memo tables — which
/// copied whole global states per entry and compared them
/// lexicographically — with one precomputed hash, an open-addressing
/// probe, and a word-wise compare on the rare collision.
///
/// The same pool interns trace trie nodes ([parent id, action word], so a
/// thread's current trace id updates in O(1) per step), event ids and
/// sleep-set signatures.
///
/// Memory is charged to the shared query Budget for real: chunked arenas
/// and slot tables report their actual allocation sizes as they grow,
/// replacing the seed's flat per-entry guess (ROADMAP item (e)).
///
/// Concurrency model: lookups — the overwhelmingly common case once the
/// table is warm — are lock-free. Slot tables hold atomic entry indices
/// published with release stores; entries live in chunked storage that
/// never moves, so a probe that hits returns without touching the shard
/// mutex. The mutex guards only insertion, arena growth and rehash.
/// Rehashed tables are retired (not freed) until pool destruction, so a
/// reader racing a grow probes a stale-but-valid table and at worst
/// misses a fresh entry — then falls through to the authoritative locked
/// path. A small thread-local front cache of recently interned spans
/// (each line tagged with its pool's never-reused generation and
/// verified word-for-word against the arena) keeps hot spans from hammering cross-shard cache
/// lines at all. Arena chunks never move, so a span view stays valid for
/// the pool's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_INTERN_H
#define TRACESAFE_SUPPORT_INTERN_H

#include "support/Budget.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace tracesafe {

/// Interns spans of uint64 words into dense uint32 ids.
class InternPool {
public:
  /// \p ShardBits selects 2^ShardBits shards (0 for single-threaded use).
  /// \p Shared, when non-null, is charged the pool's real allocation
  /// sizes; exhaustion never corrupts the pool, it only flags the budget.
  explicit InternPool(unsigned ShardBits = 0, Budget *Shared = nullptr);
  ~InternPool();

  InternPool(const InternPool &) = delete;
  InternPool &operator=(const InternPool &) = delete;

  struct Result {
    uint32_t Id;
    bool Inserted; ///< true on the first occurrence of the span
  };

  /// Interns \p Words[0..N). Idempotent; thread-safe. Warm lookups are
  /// lock-free; only first occurrences take the shard mutex.
  Result intern(const uint64_t *Words, size_t N);

  /// The words of a previously interned span. Lock-free; the pointer
  /// stays valid for the pool's lifetime.
  std::pair<const uint64_t *, uint32_t> view(uint32_t Id) const;

  /// Number of distinct spans interned.
  size_t size() const;

  /// Resident bytes across all shards (arenas + tables).
  uint64_t bytes() const;

  static uint64_t hashWords(const uint64_t *Words, size_t N);

  /// Shard bits for a pool (or SleepMemo) shared by \p Workers threads:
  /// about four shards per worker, none for one worker, at most 2^6.
  static unsigned shardBitsFor(unsigned Workers);

private:
  struct Shard;
  unsigned ShardBits;
  uint64_t Generation; ///< process-unique, never reused (front-cache key)
  std::vector<std::unique_ptr<Shard>> Shards;
  Budget *Shared;
};

/// Sleep-set memo: for each interned state, the sleep sets it has been
/// explored with. The POR search prunes a visit iff a recorded sleep set
/// is a subset of the current one — the recorded visit then explored a
/// superset of the transitions this visit would. Recording with plain
/// "seen before?" instead is the classic unsound shortcut (a first visit
/// with a big sleep set would mask transitions a later visit must take).
///
/// Read-mostly concurrency: the prune answer (false) may be produced
/// lock-free — a record reached through a stale table or an unlinked
/// chain entry still names a genuinely recorded visit, so pruning
/// against it stays sound. The explore/record answer (true) is always
/// re-derived under the shard mutex, keeping check-and-record atomic.
class SleepMemo {
public:
  /// \p ShardBits as for InternPool; \p Sigs is the pool whose ids the
  /// signatures were interned into (sorted event-id spans).
  explicit SleepMemo(unsigned ShardBits, const InternPool &Sigs,
                     Budget *Shared = nullptr);
  ~SleepMemo();

  SleepMemo(const SleepMemo &) = delete;
  SleepMemo &operator=(const SleepMemo &) = delete;

  /// Returns true when the state must be explored with the given sleep
  /// signature (and records it); false when a recorded subset already
  /// covers this visit. Signatures that become dominated by the new one
  /// are dropped. Thread-safe; the check-and-record is atomic per state.
  bool shouldExplore(uint32_t StateId, uint32_t SigId);

  uint64_t bytes() const;

private:
  struct Shard;
  unsigned ShardBits;
  std::vector<std::unique_ptr<Shard>> Shards;
  const InternPool &Sigs;
  Budget *Shared;
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_INTERN_H
