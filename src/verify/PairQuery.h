//===----------------------------------------------------------------------===//
///
/// \file
/// Pair queries (the DRF guarantee and thin air for one original /
/// transformed pair) on the paper's proof, the reduced engines and the
/// BehaviourCache. This is the daemon's primary path; checkDrfGuarantee and
/// checkThinAir (verify/Checks.h) stay the independent, execution-based
/// statement of the same theorems and the degraded fallback.
///
/// DrfGuarantee is decided in three steps:
///  1. drf(O) from the interned race search on [[O]] over dom(O).
///  2. If O is DRF and every constant of T is in dom(O): the Lemma 5
///     certificate. When [[T]] is a reordering of an elimination of [[O]],
///     both over dom(O), Theorems 1-4 give "T is DRF and behaviours(T)
///     within behaviours(O)" without interleaving either program. The
///     check runs under PairCertificateNodeCap search nodes, each charged
///     to the query budget, so a deadline, a cancellation or the visit cap
///     stops it. Over a wider domain it would prove too much: an input of
///     O could then match an output of T that O cannot make over dom(O).
///  3. Otherwise (a racy O, a certificate that fails or hits its cap):
///     drf(T) and the behaviour inclusion from the reduced engines over
///     dom(O), exactly the sub-questions checkDrfGuarantee asks.
///
/// ThinAir asks checkThinAir's sub-questions over the same domains: can T
/// output C (behaviours of [[T]] over dom(T)), and do [[O]] and [[T]] over
/// dom(O) ∪ {C} have an origin for C.
///
/// Every engine runs at Workers = 1 and every cached sub-result replays its
/// recorded cost, so a query's visit count does not depend on cache warmth.
/// A truncated traceset contributes no witness, for the same reason: a
/// cache hit on an exhausted budget returns the complete set.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_PAIRQUERY_H
#define TRACESAFE_VERIFY_PAIRQUERY_H

#include "verify/Checks.h"

namespace tracesafe {

/// Search nodes (elimination witnesses and de-permutations together) the
/// Lemma 5 certificate may spend on one pair before step 3 takes over. A
/// constant, not a tuning knob: it bounds the certificate's heavy tail,
/// and the budget charges keep it inside the query's own caps.
constexpr uint64_t PairCertificateNodeCap = 20'000;

/// The DRF guarantee for \p Orig -> \p Transformed under \p B, with the
/// same report fields checkDrfGuarantee fills. \p Certified, when
/// non-null, is set iff the Lemma 5 certificate decided the query (the
/// report then has no NewBehaviour and Comparison.Equal is false).
DrfGuaranteeReport drfGuaranteeQuery(const Program &Orig,
                                     const Program &Transformed, Budget &B,
                                     bool *Certified = nullptr);

/// The thin-air guarantee for constant \p C under \p B, with the same
/// report fields checkThinAir fills.
ThinAirReport thinAirQuery(const Program &Orig, const Program &Transformed,
                           Value C, Budget &B);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_PAIRQUERY_H
