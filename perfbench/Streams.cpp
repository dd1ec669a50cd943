//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded input streams. Everything here is a pure function of the seed:
/// the same seed gives byte-identical queries, programs and logs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "racelog/Synth.h"
#include "verify/Canonical.h"
#include "verify/ProgramGen.h"

#include <cctype>
#include <map>
#include <numeric>
#include <sstream>

namespace tsbench {

using namespace tracesafe;

namespace {

/// Decorrelates the generators that share one --seed.
uint64_t salted(uint64_t Seed, uint64_t Salt) {
  Rng Mix(Seed * 0x9E3779B97F4A7C15ULL + Salt);
  return Mix.next();
}

bool isPair(QueryKind K) {
  return K == QueryKind::DrfGuarantee || K == QueryKind::ThinAir;
}

bool isKeyword(const std::string &W) {
  static const std::set<std::string> Keywords = {
      "else", "if",   "input",  "lock",     "print", "skip",
      "sync", "thread", "unlock", "volatile", "while"};
  return Keywords.count(W) != 0;
}

/// Renames every identifier of \p Text through \p Map, creating fresh
/// names on first sight. Registers must keep their leading 'r'.
std::string renameIdentifiers(const std::string &Text,
                              std::map<std::string, std::string> &Map,
                              std::set<std::string> &Used, Rng &R) {
  std::string Out;
  for (size_t I = 0; I < Text.size();) {
    char Ch = Text[I];
    if (!std::isalpha(static_cast<unsigned char>(Ch)) && Ch != '_') {
      // Skip numbers whole so digits inside them are never renamed.
      Out += Ch;
      ++I;
      if (std::isdigit(static_cast<unsigned char>(Ch)))
        while (I < Text.size() &&
               std::isalnum(static_cast<unsigned char>(Text[I])))
          Out += Text[I++];
      continue;
    }
    size_t J = I;
    while (J < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[J])) ||
            Text[J] == '_'))
      ++J;
    std::string Word = Text.substr(I, J - I);
    I = J;
    if (isKeyword(Word)) {
      Out += Word;
      continue;
    }
    auto It = Map.find(Word);
    if (It == Map.end()) {
      std::string Fresh;
      do
        Fresh = (Word[0] == 'r' ? "r" : "loc") + std::to_string(R.below(1000));
      while (!Used.insert(Fresh).second);
      It = Map.emplace(Word, Fresh).first;
    }
    Out += It->second;
  }
  return Out;
}

/// Splits printed program text into (prelude, thread blocks).
void splitThreads(const std::string &Text, std::string &Prelude,
                  std::vector<std::string> &Threads) {
  Prelude.clear();
  Threads.clear();
  std::istringstream In(Text);
  std::string Line;
  bool InThread = false;
  while (std::getline(In, Line)) {
    if (!InThread && Line.rfind("thread {", 0) == 0) {
      Threads.emplace_back();
      InThread = true;
    }
    (InThread ? Threads.back() : Prelude) += Line + "\n";
    if (InThread && Line == "}")
      InThread = false;
  }
}

} // namespace

QueryRequest alphaVariant(const QueryRequest &Q, Rng &R) {
  std::string PreP, PreT;
  std::vector<std::string> ThP, ThT;
  splitThreads(Q.Program, PreP, ThP);
  splitThreads(Q.Transformed, PreT, ThT);
  std::vector<size_t> Perm(ThP.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[R.below(I)]);
  std::map<std::string, std::string> Map;
  std::set<std::string> Used;
  auto Rebuild = [&](const std::string &Pre,
                     const std::vector<std::string> &Th) {
    std::string Out = renameIdentifiers(Pre, Map, Used, R);
    for (size_t I : Perm)
      Out += renameIdentifiers(Th[I], Map, Used, R);
    return Out;
  };
  QueryRequest V = Q;
  V.Program = Rebuild(PreP, ThP);
  if (isPair(Q.Kind) && ThT.size() == ThP.size())
    V.Transformed = Rebuild(PreT, ThT);
  return V;
}

ColdGenerator::ColdGenerator(uint64_t Seed) : R(salted(Seed, 1)) {}

Program ColdGenerator::freshProgram(QueryKind K) {
  for (;;) {
    GenOptions G;
    G.Discipline = static_cast<GenDiscipline>(R.below(4));
    G.Threads = 2 + static_cast<unsigned>(R.below(2));
    G.MaxStmtsPerThread = G.Threads == 3 ? 5 : 6;
    Program P = generateProgram(R, G);
    std::string Key = std::to_string(static_cast<int>(K)) + "\n" +
                      canonicalProgramText(P);
    if (Seen.insert(std::move(Key)).second)
      return P;
  }
}

StreamQuery ColdGenerator::make(QueryKind K, const Program &P) {
  StreamQuery S;
  S.Index = NextIndex++;
  S.Req.Kind = K;
  S.Req.Program = printProgram(P);
  if (isPair(K))
    S.Req.Transformed = printProgram(greedyChain(P, RuleSet::all()).Result);
  return S;
}

StreamQuery ColdGenerator::next() {
  uint64_t D = R.below(10);
  QueryKind K = D < 3   ? QueryKind::ProgramDrf
                : D < 6 ? QueryKind::Behaviours
                : D < 9 ? QueryKind::DrfGuarantee
                        : QueryKind::ThinAir;
  return make(K, freshProgram(K));
}

StreamQuery ColdGenerator::nextDrfGuarantee() {
  StreamQuery S =
      make(QueryKind::DrfGuarantee, freshProgram(QueryKind::DrfGuarantee));
  S.Req.Class = daemon::ClientClass::Batch;
  return S;
}

RepeatGenerator::RepeatGenerator(uint64_t Seed,
                                 const std::vector<StreamQuery> &Pool,
                                 ColdGenerator &Fresh)
    : R(salted(Seed, 2)), Pool(Pool), Fresh(Fresh) {}

StreamQuery RepeatGenerator::next() {
  StreamQuery S;
  if (R.below(10) == 0) {
    S = Fresh.next();
  } else {
    size_t From = R.below(Pool.size());
    S.Req = alphaVariant(Pool[From].Req, R);
    S.PoolOrigin = static_cast<int64_t>(From);
  }
  S.Index = NextIndex++;
  return S;
}

std::vector<std::string> relaxedPrograms(uint64_t Seed, size_t N) {
  Rng R(salted(Seed, 3));
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I) {
    GenOptions G;
    G.Discipline = static_cast<GenDiscipline>(R.below(4));
    G.Threads = 3;
    G.MinStmtsPerThread = 4;
    G.MaxStmtsPerThread = 7;
    Out.push_back(printProgram(generateProgram(R, G)));
  }
  return Out;
}

std::vector<std::string> raceLogs(uint64_t Seed, size_t N,
                                  uint64_t EventsPerLog) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I) {
    racelog::SynthOptions O;
    O.Events = EventsPerLog;
    O.Seed = salted(Seed, 100 + I);
    switch (I % 3) {
    case 0:
      Out.push_back(racelog::makeRaceFreeLog(O));
      break;
    case 1:
      Out.push_back(racelog::makeMixedLog(O));
      break;
    default:
      Out.push_back(racelog::makeLockHeavyLog(O));
      break;
    }
  }
  return Out;
}

std::string streamBytes(const std::string &Workload, uint64_t Seed,
                        size_t N) {
  std::string Out;
  auto Put = [&](const QueryRequest &Q) { Out += daemon::encodeSubmit(Q); };
  if (Workload == "serve_cold" || Workload == "campaign_burst") {
    ColdGenerator G(Seed);
    for (size_t I = 0; I < N; ++I)
      Put(Workload == "serve_cold" ? G.next().Req
                                   : G.nextDrfGuarantee().Req);
  } else if (Workload == "serve_repeat") {
    ColdGenerator G(Seed);
    std::vector<StreamQuery> Pool;
    for (size_t I = 0; I < 8; ++I)
      Pool.push_back(G.next());
    RepeatGenerator RG(Seed, Pool, G);
    for (size_t I = 0; I < N; ++I)
      Put(RG.next().Req);
  } else if (Workload == "relaxed_sweep") {
    for (const std::string &P : relaxedPrograms(Seed, N))
      Out += P;
  } else if (Workload == "racelog_scan") {
    for (const std::string &L : raceLogs(Seed, N, 4096))
      Out += L;
  }
  return Out;
}

} // namespace tsbench
