//===----------------------------------------------------------------------===//
///
/// \file
/// Reference answers, computed outside the timed phase by the independent
/// engines: the ExhaustiveOracle enumerators for ProgramDrf and
/// Behaviours, the theorems (Theorems 1, 2 and 5 make every safe-chain
/// DrfGuarantee and ThinAir query Proved) for the pair kinds.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "trace/Enumerate.h"

#include <atomic>
#include <thread>

namespace tsbench {

using namespace tracesafe;

Reference referenceFor(const QueryRequest &Q) {
  Reference Ref;
  if (Q.Kind != QueryKind::ProgramDrf && Q.Kind != QueryKind::Behaviours)
    return Ref;
  ParseResult P = parseProgram(Q.Program);
  if (!P) {
    Ref.Complete = false;
    return Ref;
  }
  ExploreStats XS;
  Traceset TS = programTraceset(*P.Prog, defaultDomainFor(*P.Prog, 2),
                                ExploreLimits{}, &XS);
  EnumerationLimits EL;
  EL.ExhaustiveOracle = true;
  if (Q.Kind == QueryKind::ProgramDrf) {
    Verdict<Interleaving> V = checkDataRaceFreedom(TS, EL);
    Ref.Drf = V.isProved();
    Ref.Complete = !XS.Truncated && V.Kind != VerdictKind::Unknown;
  } else {
    EnumerationStats ES;
    Ref.Behaviours = collectBehaviours(TS, EL, &ES);
    Ref.Complete = !XS.Truncated && !ES.Truncated;
  }
  return Ref;
}

std::vector<Reference> referencesFor(const std::vector<QueryRequest> &Qs,
                                     unsigned Threads) {
  std::vector<Reference> Out(Qs.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < std::max(1u, Threads); ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Qs.size();)
        Out[I] = referenceFor(Qs[I]);
    });
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

bool behavioursDetailMatches(const std::string &Detail,
                             const std::set<Behaviour> &Expected) {
  const std::string Tag = "behaviours=";
  if (Detail.rfind(Tag, 0) != 0)
    return false;
  size_t Pos = Tag.size();
  size_t Count = std::strtoull(Detail.c_str() + Pos, nullptr, 10);
  if (Count != Expected.size())
    return false;
  auto It = Expected.begin();
  while ((Pos = Detail.find('[', Pos)) != std::string::npos) {
    size_t Close = Detail.find(']', Pos);
    if (Close == std::string::npos || It == Expected.end())
      return false;
    Behaviour B;
    std::string Body = Detail.substr(Pos + 1, Close - Pos - 1);
    for (size_t At = 0; At < Body.size();) {
      size_t Comma = Body.find(',', At);
      if (Comma == std::string::npos)
        Comma = Body.size();
      B.push_back(std::stoll(Body.substr(At, Comma - At)));
      At = Comma + 1;
    }
    if (B != *It++)
      return false;
    Pos = Close;
  }
  return true;
}

Check checkResponse(const QueryRequest &Q, const QueryResponse &R,
                    const Reference &Ref) {
  if (R.Kind == VerdictKind::Unknown)
    return Check::Undecided;
  if (!Ref.Complete)
    return Check::Mismatch; // an unverifiable verdict is not a pass
  switch (Q.Kind) {
  case QueryKind::ProgramDrf:
    return (R.Kind == VerdictKind::Proved) == Ref.Drf ? Check::Decided
                                                      : Check::Mismatch;
  case QueryKind::Behaviours:
    return R.Kind == VerdictKind::Proved &&
                   behavioursDetailMatches(R.Detail, Ref.Behaviours)
               ? Check::Decided
               : Check::Mismatch;
  case QueryKind::DrfGuarantee:
  case QueryKind::ThinAir:
    return R.Kind == VerdictKind::Proved ? Check::Decided : Check::Mismatch;
  default:
    return Check::Mismatch;
  }
}

void account(Outcome &O, Check C) {
  switch (C) {
  case Check::Decided:
    ++O.Attempted;
    ++O.Succeeded;
    ++O.Decided;
    break;
  case Check::Undecided:
    ++O.Attempted;
    ++O.Succeeded;
    ++O.Undecided;
    break;
  case Check::Mismatch:
    O.failed(O.Mismatches);
    break;
  }
}

} // namespace tsbench
