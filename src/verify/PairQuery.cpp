#include "verify/PairQuery.h"

#include "semantics/Reordering.h"
#include "verify/BehaviourCache.h"

#include <algorithm>

using namespace tracesafe;

namespace {

using TracesetPtr = std::shared_ptr<const Traceset>;

ExploreLimits exploreOn(Budget &B) {
  ExploreLimits L;
  L.Shared = &B;
  L.Workers = 1;
  return L;
}

EnumerationLimits enumerateOn(Budget &B) {
  EnumerationLimits L;
  L.Shared = &B;
  L.Workers = 1;
  return L;
}

/// The race verdict of a traceset; a truncated one is Unknown.
Verdict<Interleaving> drfOf(const Traceset &T, const ExploreStats &S,
                            Budget &B) {
  if (S.Truncated)
    return Verdict<Interleaving>::unknown(S.Reason);
  return BehaviourCache::global().drfFor(T, enumerateOn(B));
}

/// The behaviours of a traceset; a truncated one gives none, and \p Out
/// says so.
std::set<Behaviour> behavioursOf(const Traceset &T, const ExploreStats &S,
                                 Budget &B, EnumerationStats &Out) {
  if (S.Truncated) {
    Out.truncate(S.Reason);
    return {};
  }
  return BehaviourCache::global().behavioursFor(T, enumerateOn(B), &Out);
}

/// Step 2: does the Lemma 5 certificate prove the guarantee? \p TO and
/// \p TT are complete tracesets of O and T over dom(O), and O is DRF.
bool certify(const Traceset &TO, const Traceset &TT, Budget &B) {
  EliminationSearchLimits EL;
  EL.Shared = &B;
  ReorderingSearchLimits RL;
  RL.Shared = &B;
  RL.MaxNodes = PairCertificateNodeCap;
  return checkEliminationThenReordering(TO, TT, EL, RL).Verdict ==
         CheckVerdict::Holds;
}

} // namespace

DrfGuaranteeReport tracesafe::drfGuaranteeQuery(const Program &Orig,
                                                const Program &Transformed,
                                                Budget &B, bool *Certified) {
  BehaviourCache &Cache = BehaviourCache::global();
  const ExploreLimits XL = exploreOn(B);
  DrfGuaranteeReport Out;
  if (Certified)
    *Certified = false;

  // Step 1. Like checkDrfGuarantee, both programs face the original's
  // input domain.
  std::vector<Value> DomO = defaultDomainFor(Orig);
  ExploreStats SO;
  TracesetPtr TO = Cache.tracesetFor(Orig, DomO, XL, &SO);
  Verdict<Interleaving> DrfO = drfOf(*TO, SO, B);
  Out.OriginalDrf = !DrfO.isRefuted();
  Out.OriginalRaceTruncated = DrfO.isUnknown();

  // Step 2. The certificate runs over dom(O), the domain step 3 compares
  // behaviours over, and only when T has no constant outside it. Inputs
  // and outputs are both external actions, so over a wider domain an
  // input of O could match an output of T that O cannot make over dom(O).
  std::vector<Value> DomT = defaultDomainFor(Transformed);
  ExploreStats ST;
  TracesetPtr TT = Cache.tracesetFor(Transformed, DomO, XL, &ST);
  if (DrfO.isProved() && !ST.Truncated &&
      std::includes(DomO.begin(), DomO.end(), DomT.begin(), DomT.end()) &&
      certify(*TO, *TT, B)) {
    Out.TransformedDrf = true;
    Out.BehavioursPreserved = true;
    Out.Comparison.Subset = true;
    if (Certified)
      *Certified = true;
    return Out;
  }

  // Step 3.
  Verdict<Interleaving> DrfT = drfOf(*TT, ST, B);
  Out.TransformedDrf = !DrfT.isRefuted();
  Out.TransformedRaceTruncated = DrfT.isUnknown();
  EnumerationStats EO, ET;
  std::set<Behaviour> BO = behavioursOf(*TO, SO, B, EO);
  std::set<Behaviour> BT = behavioursOf(*TT, ST, B, ET);
  Out.Comparison = compareBehaviourSets(BO, BT, EO.Truncated, ET.Truncated,
                                        mergeReason(EO.Reason, ET.Reason));
  Out.BehavioursPreserved = Out.Comparison.Subset;
  Out.NewBehaviour = Out.Comparison.NewBehaviour;
  Out.Truncated = Out.OriginalRaceTruncated ||
                  Out.TransformedRaceTruncated || Out.Comparison.Truncated;
  Out.Reason = mergeReason(mergeReason(DrfO.Reason, DrfT.Reason),
                           Out.Comparison.Reason);
  return Out;
}

ThinAirReport tracesafe::thinAirQuery(const Program &Orig,
                                      const Program &Transformed, Value C,
                                      Budget &B) {
  BehaviourCache &Cache = BehaviourCache::global();
  const ExploreLimits XL = exploreOn(B);
  ThinAirReport Out;
  Out.Constant = C;
  Out.OrigContainsConstant = Orig.containsConstant(C);
  if (Out.OrigContainsConstant)
    return Out;

  // Can T output C? Over T's own default domain, like programCanOutput.
  ExploreStats SX;
  TracesetPtr TX =
      Cache.tracesetFor(Transformed, defaultDomainFor(Transformed), XL, &SX);
  EnumerationStats EX;
  for (const Behaviour &Beh : behavioursOf(*TX, SX, B, EX))
    if (std::find(Beh.begin(), Beh.end(), C) != Beh.end()) {
      Out.TransformedOutputs = true;
      break;
    }
  Out.OutputSearchTruncated = EX.Truncated;

  // Origins for C over dom(O) ∪ {C}, as checkThinAir builds them.
  std::vector<Value> Domain = defaultDomainFor(Orig);
  if (std::find(Domain.begin(), Domain.end(), C) == Domain.end())
    Domain.push_back(C);
  ExploreStats SA, SB;
  TracesetPtr TO = Cache.tracesetFor(Orig, Domain, XL, &SA);
  TracesetPtr TT = Cache.tracesetFor(Transformed, Domain, XL, &SB);
  Out.OrigHasOrigin = !SA.Truncated && TO->hasOriginFor(C);
  Out.TransformedHasOrigin = !SB.Truncated && TT->hasOriginFor(C);
  Out.OrigExploreTruncated = SA.Truncated;
  Out.TransformedExploreTruncated = SB.Truncated;
  Out.Truncated = EX.Truncated || SA.Truncated || SB.Truncated;
  Out.Reason = mergeReason(mergeReason(EX.Reason, SA.Reason), SB.Reason);
  return Out;
}
