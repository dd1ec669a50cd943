#include "semantics/Elimination.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace tracesafe;

std::string tracesafe::checkVerdictName(CheckVerdict V) {
  switch (V) {
  case CheckVerdict::Holds:
    return "holds";
  case CheckVerdict::Fails:
    return "fails";
  case CheckVerdict::Unknown:
    return "unknown";
  }
  return "<invalid>";
}

bool tracesafe::isEliminationOfTrace(const Trace &T, const Trace &TPrime,
                                     bool ProperOnly) {
  size_t N = T.size(), M = TPrime.size();
  if (M > N)
    return false;
  std::vector<char> Elim(N);
  for (size_t I = 0; I < N; ++I)
    Elim[I] = ProperOnly ? isProperlyEliminable(T, I) : isEliminable(T, I);
  // Can[i][j]: T[i..) can produce TPrime[j..) by keeping matches and
  // dropping eliminable indices. Filled back to front.
  std::vector<std::vector<char>> Can(N + 1, std::vector<char>(M + 1, 0));
  Can[N][M] = 1;
  for (size_t I = N; I-- > 0;) {
    // j == M: the remaining suffix must be entirely eliminable.
    Can[I][M] = Elim[I] && Can[I + 1][M];
    for (size_t J = M; J-- > 0;) {
      bool Keep = T[I] == TPrime[J] && Can[I + 1][J + 1];
      bool Drop = Elim[I] && Can[I + 1][J];
      Can[I][J] = Keep || Drop;
    }
  }
  return Can[0][0];
}

namespace {

/// Backtracking search for an elimination witness (see header).
class WitnessSearch {
public:
  WitnessSearch(const Traceset &Orig, const Trace &TPrime,
                const EliminationSearchLimits &Limits, bool ProperOnly,
                SearchTally *Tally)
      : Orig(Orig), TPrime(TPrime), Limits(Limits), ProperOnly(ProperOnly),
        Tally(Tally) {
    Instances.push_back(Trace());
  }

  std::optional<Trace> run(bool *Truncated, std::vector<size_t> *DroppedOut) {
    bool Found = dfs(0, 0);
    if (Truncated)
      *Truncated = Hit;
    if (!Found)
      return std::nullopt;
    if (DroppedOut) {
      *DroppedOut = Dropped;
      std::sort(DroppedOut->begin(), DroppedOut->end());
    }
    return Witness;
  }

private:
  /// A dropped (inserted) action is worth trying only if some Definition-1
  /// case could ever justify it. Acquires (locks, volatile reads) and start
  /// actions are never eliminable.
  bool possiblyEliminableKind(const Action &A) const {
    if (A.isStart() || A.isLock())
      return false;
    if (A.isRead() && A.isVolatileAccess())
      return false;
    if (ProperOnly && (A.isUnlock() || A.isExternal() ||
                       (A.isWrite() && A.isVolatileAccess())))
      return false; // Cases 6-8 are excluded; releases/externals need them.
    return true;
  }

  /// Actions that extend *every* current instance inside Orig.
  std::vector<Action> commonSuccessors() const {
    std::vector<Action> Common = Orig.successors(Instances[0]);
    for (size_t K = 1; K < Instances.size() && !Common.empty(); ++K) {
      std::vector<Action> Next = Orig.successors(Instances[K]);
      std::vector<Action> Merged;
      std::set_intersection(Common.begin(), Common.end(), Next.begin(),
                            Next.end(), std::back_inserter(Merged));
      Common = std::move(Merged);
    }
    return Common;
  }

  /// Extends every instance with \p A (concrete) or with all domain values
  /// (wildcard read). Returns false if some extension leaves Orig or the
  /// instance cap is hit.
  bool pushAction(const Action &A) {
    std::vector<Trace> Next;
    for (const Trace &Inst : Instances) {
      if (A.isWildcard()) {
        for (Value V : Orig.domain()) {
          Trace E = Inst;
          E.push_back(A.instantiate(V));
          if (!Orig.contains(E))
            return false;
          Next.push_back(std::move(E));
        }
      } else {
        Trace E = Inst;
        E.push_back(A);
        if (!Orig.contains(E))
          return false;
        Next.push_back(std::move(E));
      }
    }
    if (Next.size() > Limits.MaxInstances) {
      Hit = true;
      return false;
    }
    InstanceStack.push_back(std::move(Instances));
    Instances = std::move(Next);
    Witness.push_back(A);
    return true;
  }

  void popAction() {
    Witness.pop_back();
    Instances = std::move(InstanceStack.back());
    InstanceStack.pop_back();
  }

  /// All dropped indices eliminable in the final witness?
  bool droppedAllEliminable(const std::vector<size_t> &Dropped) const {
    for (size_t I : Dropped) {
      bool Ok = ProperOnly ? isProperlyEliminable(Witness, I)
                           : isEliminable(Witness, I);
      if (!Ok)
        return false;
    }
    return true;
  }

  bool dfs(size_t J, size_t Extra) {
    if (++Nodes > Limits.MaxNodesPerTrace || (Tally && !Tally->step()) ||
        (Limits.Shared && !Limits.Shared->charge())) {
      Hit = true;
      return false;
    }
    if (J == TPrime.size() && droppedAllEliminable(Dropped))
      return true;
    // Move 1: keep the next action of TPrime.
    if (J < TPrime.size() && pushAction(TPrime[J])) {
      if (dfs(J + 1, Extra))
        return true;
      popAction();
    }
    // Move 2: insert an action to be eliminated.
    if (Extra >= Limits.MaxExtra)
      return false;
    std::vector<Action> Cands = commonSuccessors();
    // Wildcard-read candidates: a location all of whose domain reads are
    // common successors.
    std::vector<Action> Wild;
    for (const Action &A : Cands) {
      if (!A.isRead() || A.isVolatileAccess())
        continue;
      size_t Count = 0;
      for (const Action &B : Cands)
        if (B.isRead() && !B.isVolatileAccess() &&
            B.location() == A.location())
          ++Count;
      if (Count == Orig.domain().size()) {
        Action W = Action::mkWildcardRead(A.location());
        if (std::find(Wild.begin(), Wild.end(), W) == Wild.end())
          Wild.push_back(W);
      }
    }
    // Prefer wildcard inserts (more general; they subsume the concrete
    // irrelevant-read case), then concrete ones.
    for (const Action &W : Wild) {
      if (!pushAction(W))
        continue;
      Dropped.push_back(Witness.size() - 1);
      if (dfs(J, Extra + 1))
        return true;
      Dropped.pop_back();
      popAction();
    }
    for (const Action &A : Cands) {
      if (!possiblyEliminableKind(A))
        continue;
      if (!pushAction(A))
        continue;
      Dropped.push_back(Witness.size() - 1);
      if (dfs(J, Extra + 1))
        return true;
      Dropped.pop_back();
      popAction();
    }
    return false;
  }

  const Traceset &Orig;
  const Trace &TPrime;
  EliminationSearchLimits Limits;
  bool ProperOnly;
  SearchTally *Tally;

  Trace Witness;
  std::vector<size_t> Dropped;
  std::vector<Trace> Instances;
  std::vector<std::vector<Trace>> InstanceStack;
  uint64_t Nodes = 0;
  bool Hit = false;
};

} // namespace

std::optional<Trace> tracesafe::findEliminationWitness(
    const Traceset &Orig, const Trace &TPrime,
    const EliminationSearchLimits &Limits, bool *Truncated, bool ProperOnly,
    std::vector<size_t> *DroppedOut, SearchTally *Tally) {
  WitnessSearch S(Orig, TPrime, Limits, ProperOnly, Tally);
  bool Hit = false;
  std::optional<Trace> W = S.run(&Hit, DroppedOut);
  // The witness must belong-to Orig, so its length is bounded by the
  // longest trace in Orig; the insertion budget therefore makes the search
  // complete iff it covers maxTraceLength - |t'|. A failed search under a
  // smaller budget is inconclusive, not a refutation.
  if (!W && !Hit &&
      Limits.MaxExtra + TPrime.size() < Orig.maxTraceLength())
    Hit = true;
  if (Truncated)
    *Truncated = Hit;
  return W;
}

TransformCheckResult
tracesafe::checkElimination(const Traceset &Orig, const Traceset &Transformed,
                            const EliminationSearchLimits &Limits,
                            bool ProperOnly) {
  TransformCheckResult Result;
  for (const Trace &TPrime : Transformed.traces()) {
    ++Result.TracesChecked;
    bool Truncated = false;
    std::optional<Trace> W =
        findEliminationWitness(Orig, TPrime, Limits, &Truncated, ProperOnly);
    if (W)
      continue;
    Result.Verdict = Truncated ? CheckVerdict::Unknown : CheckVerdict::Fails;
    Result.Counterexample = TPrime;
    return Result;
  }
  return Result;
}
