//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic reordering transformation (§4) as a decision procedure.
///
/// A bijection f on dom(t') is a *reordering function* for t' if for all
/// i < j, f(j) < f(i) implies t'_j is reorderable with t'_i. The
/// de-permutation of length n, f.<n(t'), takes the first n elements of t'
/// and lists them in the order of their f-images (the paper's "apply the
/// permutation to a prefix of t', leaving out from t what is not in the
/// prefix"). f de-permutes t' into a set of traces T if it is a reordering
/// function for t' and f.<n(t') is in T for *every* n — the per-prefix
/// condition is what licenses roach-motel reorderings.
///
/// T' is a reordering of T iff every trace of T' has a de-permuting
/// function into T. The checker backtracks over target positions in source
/// order, pruning with the pairwise reorderability constraint and the
/// prefix-membership condition (which only depends on the assigned prefix).
///
/// checkEliminationThenReordering combines the two transformations exactly
/// as the paper's syntactic reordering lemma (Lemma 5) requires: membership
/// in the intermediate set T-bar is answered by the elimination-witness
/// oracle.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SEMANTICS_REORDERING_H
#define TRACESAFE_SEMANTICS_REORDERING_H

#include "semantics/Elimination.h"
#include "support/Permutation.h"
#include "trace/Traceset.h"

#include <functional>
#include <optional>

namespace tracesafe {

/// True iff \p F (a bijection on dom(T)) satisfies the pairwise
/// reorderability constraint for \p T.
bool isReorderingFunction(const Trace &T, const Permutation &F);

/// f.<n(t'): the first \p N elements of \p TPrime arranged by their
/// f-images. N defaults to the whole trace.
Trace depermutePrefix(const Trace &TPrime, const Permutation &F, size_t N);
Trace depermute(const Trace &TPrime, const Permutation &F);

/// Bounds for the de-permutation search.
struct ReorderingSearchLimits {
  uint64_t MaxNodesPerTrace = 5'000'000;
  /// Cap on the search nodes of one whole checkEliminationThenReordering
  /// call, its elimination oracle's nodes included (0 = none); hitting it
  /// makes the verdict Unknown. The other searches ignore it.
  uint64_t MaxNodes = 0;
  /// Optional shared query budget, charged per search node like
  /// EliminationSearchLimits::Shared. Non-owning; may be null.
  Budget *Shared = nullptr;
};

/// Searches for a function de-permuting \p TPrime into the trace set given
/// by the membership oracle \p Contains. Sets \p *Truncated on limit hits.
std::optional<Permutation>
findDepermutation(const Trace &TPrime,
                  const std::function<bool(const Trace &)> &Contains,
                  const ReorderingSearchLimits &Limits = {},
                  bool *Truncated = nullptr);

/// §4: is \p Transformed a reordering of \p Orig?
TransformCheckResult
checkReordering(const Traceset &Orig, const Traceset &Transformed,
                const ReorderingSearchLimits &Limits = {});

/// Lemma 5 shape: is \p Transformed a reordering of some elimination of
/// \p Orig? Membership in the intermediate set is decided by
/// findEliminationWitness (memoised per queried trace).
TransformCheckResult checkEliminationThenReordering(
    const Traceset &Orig, const Traceset &Transformed,
    const EliminationSearchLimits &ElimLimits = {},
    const ReorderingSearchLimits &ReorderLimits = {});

} // namespace tracesafe

#endif // TRACESAFE_SEMANTICS_REORDERING_H
