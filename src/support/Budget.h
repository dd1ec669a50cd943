//===----------------------------------------------------------------------===//
///
/// \file
/// Unified resource budgets and tri-state verdicts for the verification
/// harness.
///
/// Every exhaustive search in the library (traceset generation, execution
/// enumeration, the SC interpreter, the transformation checkers) is
/// exponential in the worst case. A Budget bounds a whole *query* — not one
/// engine — with a wall-clock deadline, a state-visit cap and an
/// approximate memory cap, shared cooperatively by every engine the query
/// touches. When a budget is exhausted the engines stop and report a
/// structured TruncationReason; callers surface the query result as a
/// Verdict whose Unknown state carries that reason, never as a wrong or
/// asserted-away answer.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_BUDGET_H
#define TRACESAFE_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace tracesafe {

/// Why a search stopped early. None means the search ran to completion.
enum class TruncationReason : uint8_t {
  None,
  StateCap,    ///< per-query or per-engine visit cap reached
  DepthCap,    ///< per-trace/per-thread action bound reached
  SilentLoop,  ///< a thread exceeded its silent-step allowance
  MemoryCap,   ///< approximate memory charge exceeded the budget
  Deadline,    ///< wall-clock deadline passed
  Cancelled,   ///< external cancellation (signal, kill, shutdown)
  EngineFault, ///< an engine faulted (exception, injected failure) and the
               ///< query was contained instead of crashing the process
};

/// Printable reason name ("deadline", "state-cap", ...).
const char *truncationReasonName(TruncationReason R);

/// Merges two reasons, preferring the more specific (non-None) one. Used
/// when a query aggregates several engine runs.
inline TruncationReason mergeReason(TruncationReason A, TruncationReason B) {
  return A == TruncationReason::None ? B : A;
}

/// Cooperative cancellation flag. A token is requested exactly once (by a
/// signal handler, a watchdog, or a parent query) and observed by every
/// Budget it is attached to: the next charge() clock check turns into a
/// sticky Cancelled exhaustion, so all engines of the query unwind within
/// one budget check interval. request() is async-signal-safe when
/// std::atomic<bool> is lock-free (it is on every supported target).
class CancelToken {
public:
  void request() { Flag.store(true, std::memory_order_relaxed); }
  bool requested() const { return Flag.load(std::memory_order_relaxed); }
  /// Re-arms the token (between campaign phases; not thread-safe against
  /// concurrent request()).
  void reset() { Flag.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// Declarative description of a budget. Zero means "unlimited" for every
/// field, so BudgetSpec{} never truncates anything by itself.
struct BudgetSpec {
  /// Wall-clock deadline in milliseconds from the budget's creation.
  int64_t DeadlineMs = 0;
  /// Cap on state visits charged across all engines of the query.
  uint64_t MaxVisited = 0;
  /// Cap on approximate bytes charged (memoisation tables dominate).
  uint64_t MaxMemoryBytes = 0;

  /// Returns this spec scaled by \p Factor and clamped to \p Ceiling
  /// (field-wise; 0 in the ceiling means unbounded). Used by escalation.
  BudgetSpec scaled(unsigned Factor, const BudgetSpec &Ceiling) const;

  std::string str() const;
};

/// A shared tally that is handed out in blocks (see Budget::Scope and
/// CounterScope). A scope reserves a block of 1-based indices with one
/// fetch_add on Top and returns what it did not use when it settles. The
/// return must never let an index be handed out twice: if no later block
/// was reserved meanwhile, the scope rolls Top back over its unused tail;
/// otherwise the tail stays reserved and is counted in Holes instead.
/// value() = Top - Holes is exact once every scope has settled, and a run
/// with one scope at a time never makes a hole.
class BlockCounter {
public:
  /// Reserves \p N indices; returns the index before the first of them.
  uint64_t reserve(uint64_t N) {
    return Top.fetch_add(N, std::memory_order_relaxed);
  }

  /// Returns the unused tail (Base + Used, Base + Cap] of a reserved
  /// block.
  void release(uint64_t Base, uint64_t Used, uint64_t Cap) {
    if (Cap == Used)
      return;
    uint64_t Expected = Base + Cap;
    if (!Top.compare_exchange_strong(Expected, Base + Used,
                                     std::memory_order_relaxed))
      Holes.fetch_add(Cap - Used, std::memory_order_release);
  }

  /// The number of indices reserved and not returned.
  uint64_t value() const {
    // Holes first: every hole lies below a Top value published before it.
    uint64_t H = Holes.load(std::memory_order_acquire);
    uint64_t T = Top.load(std::memory_order_relaxed);
    return T > H ? T - H : 0;
  }

  /// The rank of index \p Index among the indices not returned, as far as
  /// this thread has seen the returns: exact with one scope at a time.
  /// The visit caps compare ranks, so returned tails do not use them up.
  uint64_t rank(uint64_t Index) const {
    uint64_t H = Holes.load(std::memory_order_relaxed);
    return Index > H ? Index - H : 0;
  }

private:
  std::atomic<uint64_t> Top{0};
  std::atomic<uint64_t> Holes{0};
};

/// A live budget: the mutable counterpart of a BudgetSpec. Engines call
/// charge() once per state expansion; the call is cheap (the clock is only
/// consulted every few hundred charges). A Budget is shared by address —
/// the limit structs of the engines carry a non-owning pointer — so the
/// caps apply to the query as a whole, not per engine. All counters are
/// atomics so one budget can be shared by every worker of a parallel
/// query; exhaustion is a sticky broadcast every worker observes.
class Budget {
public:
  explicit Budget(const BudgetSpec &Spec,
                  const CancelToken *Cancel = nullptr)
      : Spec(Spec), Start(std::chrono::steady_clock::now()),
        Cancel(Cancel) {
    if (Spec.DeadlineMs > 0)
      Deadline = Start + std::chrono::milliseconds(Spec.DeadlineMs);
  }

  /// Charges one state visit plus \p Bytes of approximate memory. Returns
  /// true while the budget has headroom; once it returns false it keeps
  /// returning false (exhaustion is sticky) so deeply recursive searches
  /// unwind promptly.
  bool charge(uint64_t Bytes = 0) {
    if (Exhausted.load(std::memory_order_relaxed) != TruncationReason::None)
      return false;
    uint64_t V = Visited.reserve(1) + 1;
    uint64_t B = Bytes_.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    if (Spec.MaxVisited && Visited.rank(V) > Spec.MaxVisited) {
      exhaust(TruncationReason::StateCap);
      return false;
    }
    if (Spec.MaxMemoryBytes && B > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    // Consult the clock (and the cancel token, and the fault plan) only
    // every 256 charges: state expansion is far cheaper than a
    // syscall-free clock read, and deadlines are advisory to
    // ~milliseconds anyway. This interval is the cancellation latency
    // bound: a requested token is observed within 256 charges.
    if ((V & 0xFF) == 0 && !checkInterrupts())
      return false;
    return true;
  }

  /// Bulk charge: \p Visits state visits plus \p Bytes of memory in one
  /// call. Used when a cached result is replayed — the cache replays the
  /// recorded cost of the original computation against the current
  /// query's budget, so a cache hit truncates a tight budget exactly
  /// where the recomputation would have (warmth must not change
  /// verdicts). Checks the clock/cancel token unconditionally: bulk
  /// charges are rare.
  bool chargeMany(uint64_t Visits, uint64_t Bytes) {
    if (Exhausted.load(std::memory_order_relaxed) != TruncationReason::None)
      return false;
    uint64_t V = Visited.reserve(Visits) + Visits;
    uint64_t B = Bytes_.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    if (Spec.MaxVisited && Visited.rank(V) > Spec.MaxVisited) {
      exhaust(TruncationReason::StateCap);
      return false;
    }
    if (Spec.MaxMemoryBytes && B > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    return checkInterrupts();
  }

  /// Charges memory only, without consuming a state visit. Used by the
  /// interned-state containers, which charge their real allocation sizes
  /// as they grow rather than a per-entry guess. Container growth is rare
  /// (geometric), so unlike charge() this consults the deadline and the
  /// cancel token on every call — a memory-only growth phase (an
  /// InternPool rehash storm) must not run past the wall clock just
  /// because no state visit was charged.
  bool chargeBytes(uint64_t Bytes) {
    if (Exhausted.load(std::memory_order_relaxed) != TruncationReason::None)
      return false;
    uint64_t B = Bytes_.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    if (Spec.MaxMemoryBytes && B > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    return checkInterrupts();
  }

  /// Marks the budget exhausted with \p R (first writer wins, like any
  /// other exhaustion). Used to broadcast external cancellation and to
  /// contain engine faults: every worker of the query observes the sticky
  /// flag on its next charge and unwinds.
  void poison(TruncationReason R) { exhaust(R); }

  /// Attaches live-progress mirrors: the existing every-256-charges slow
  /// path additionally publishes Base + the running counters into the
  /// given atomics, so an observer (the daemon's heartbeat tick) can
  /// sample a query's progress without touching the hot charge path. The
  /// bases let a multi-budget query (campaigns, oracle fallback) publish
  /// cumulative totals. The atomics must outlive the budget; either
  /// pointer may be null.
  void mirrorInto(std::atomic<uint64_t> *VisitedOut, uint64_t VisitedBase,
                  std::atomic<uint64_t> *BytesOut, uint64_t BytesBase) {
    MirrorVisited = VisitedOut;
    MirrorVisitedBase = VisitedBase;
    MirrorBytes = BytesOut;
    MirrorBytesBase = BytesBase;
  }

  /// Batched charging handle for the hot search loops. A Scope reserves a
  /// block of visit indices from the shared counter with one fetch_add and
  /// hands them out locally, so at 8+ workers the shared cache line stops
  /// being a contention point. The semantics are bit-exact with unbatched
  /// charge(): each charge consumes one global index, the visit-cap check
  /// is per-index (charge #n fails iff n exceeds MaxVisited), the clock /
  /// cancel token / fault plan are consulted at exactly the indices
  /// divisible by 256, and the sticky exhaustion flag is observed on every
  /// charge so cancellation still unwinds within one check interval.
  /// Unconsumed indices are returned at settle()/destruction (see
  /// BlockCounter: never to be handed out again while a later block is
  /// live), so once all scopes of a query quiesce, visited() equals the
  /// exact number of charges — the warmth-invariance contract the
  /// BehaviourCache replay relies on.
  class Scope {
  public:
    /// \p B may be null (unbudgeted query): charge() then always succeeds.
    explicit Scope(Budget *B) : B(B) {}
    ~Scope() { settle(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Equivalent to B->charge(Bytes), amortising the shared fetch_add
    /// over Block charges.
    bool charge(uint64_t Bytes = 0) {
      if (!B)
        return true;
      if (B->Exhausted.load(std::memory_order_relaxed) !=
          TruncationReason::None)
        return false;
      if (Used == Cap) {
        Base = B->Visited.reserve(Block);
        Used = 0;
        Cap = Block;
      }
      uint64_t V = Base + ++Used;
      if (B->Spec.MaxVisited && B->Visited.rank(V) > B->Spec.MaxVisited) {
        B->exhaust(TruncationReason::StateCap);
        return false;
      }
      if (Bytes) {
        uint64_t Bv =
            B->Bytes_.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
        if (B->Spec.MaxMemoryBytes && Bv > B->Spec.MaxMemoryBytes) {
          B->exhaust(TruncationReason::MemoryCap);
          return false;
        }
      }
      if ((V & 0xFF) == 0 && !B->checkInterrupts())
        return false;
      return true;
    }

    /// Returns the unconsumed remainder of the current block to the
    /// shared counter. Call at task boundaries (and implicitly from the
    /// destructor) so visited() is exact at quiescence.
    void settle() {
      if (B)
        B->Visited.release(Base, Used, Cap);
      Base = 0;
      Used = Cap = 0;
    }

  private:
    static constexpr uint32_t Block = 64;
    Budget *B;
    uint64_t Base = 0;
    uint32_t Used = 0;
    uint32_t Cap = 0;
  };

  bool exhausted() const {
    return Exhausted.load(std::memory_order_relaxed) != TruncationReason::None;
  }
  TruncationReason reason() const {
    return Exhausted.load(std::memory_order_relaxed);
  }
  uint64_t visited() const { return Visited.value(); }
  uint64_t chargedBytes() const {
    return Bytes_.load(std::memory_order_relaxed);
  }
  const BudgetSpec &spec() const { return Spec; }

  /// Milliseconds since the budget was created.
  int64_t elapsedMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

  /// One-line human-readable usage summary.
  std::string describe() const;

private:
  /// First writer wins; later exhaustion reasons do not overwrite it.
  void exhaust(TruncationReason R) {
    TruncationReason Expected = TruncationReason::None;
    Exhausted.compare_exchange_strong(Expected, R,
                                      std::memory_order_relaxed);
  }

  /// Slow-path check shared by charge()/chargeBytes(): wall-clock
  /// deadline, cooperative cancellation, and the BudgetCharge fault-
  /// injection site. Returns false (after exhausting) when the query must
  /// stop. Out of line so the hot header does not pull in Failure.h.
  bool checkInterrupts();

  BudgetSpec Spec;
  std::chrono::steady_clock::time_point Start;
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  const CancelToken *Cancel = nullptr;
  BlockCounter Visited;
  std::atomic<uint64_t> Bytes_{0};
  std::atomic<TruncationReason> Exhausted{TruncationReason::None};
  std::atomic<uint64_t> *MirrorVisited = nullptr;
  std::atomic<uint64_t> *MirrorBytes = nullptr;
  uint64_t MirrorVisitedBase = 0;
  uint64_t MirrorBytesBase = 0;
};

/// Block-reserving view over a shared BlockCounter (the engines'
/// per-query visit counters). Same contention-avoidance idea as
/// Budget::Scope: next() hands out unique 1-based indices from a locally
/// reserved block, and settle() (or destruction) returns the unconsumed
/// remainder, so the counter is exact once all scopes quiesce.
class CounterScope {
public:
  explicit CounterScope(BlockCounter &C) : C(C) {}
  ~CounterScope() { settle(); }
  CounterScope(const CounterScope &) = delete;
  CounterScope &operator=(const CounterScope &) = delete;

  uint64_t next() {
    if (Used == Cap) {
      Base = C.reserve(Block);
      Used = 0;
      Cap = Block;
    }
    return Base + ++Used;
  }

  void settle() {
    C.release(Base, Used, Cap);
    Base = 0;
    Used = Cap = 0;
  }

private:
  static constexpr uint32_t Block = 64;
  BlockCounter &C;
  uint64_t Base = 0;
  uint32_t Used = 0;
  uint32_t Cap = 0;
};

/// Tri-state result of a verification query.
enum class VerdictKind : uint8_t {
  Proved,  ///< the property holds; the search was exhaustive
  Refuted, ///< a definitive counterexample was found
  Unknown, ///< the search was truncated before an answer was reached
};

const char *verdictKindName(VerdictKind K);

/// A verdict with an optional counterexample payload. Refuted verdicts are
/// definitive even under truncation (a witness is a witness); Proved
/// verdicts are only produced by exhaustive searches; Unknown carries the
/// truncation reason.
template <typename T> struct Verdict {
  VerdictKind Kind = VerdictKind::Unknown;
  std::optional<T> Witness; ///< populated when Refuted
  TruncationReason Reason = TruncationReason::None;

  static Verdict proved() { return Verdict{VerdictKind::Proved, {}, {}}; }
  static Verdict refuted(T W) {
    return Verdict{VerdictKind::Refuted, std::move(W),
                   TruncationReason::None};
  }
  static Verdict unknown(TruncationReason R) {
    return Verdict{VerdictKind::Unknown, {}, R};
  }

  bool isProved() const { return Kind == VerdictKind::Proved; }
  bool isRefuted() const { return Kind == VerdictKind::Refuted; }
  bool isUnknown() const { return Kind == VerdictKind::Unknown; }
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_BUDGET_H
