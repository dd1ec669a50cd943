#include "Layers.h"

#include "daemon/Server.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "trace/Enumerate.h"
#include "verify/BehaviourCache.h"
#include "verify/CacheStore.h"
#include "verify/Canonical.h"
#include "verify/Checks.h"

#include <chrono>

namespace tsbench {

using namespace tracesafe;
using Clock = std::chrono::steady_clock;

namespace {

/// Replayed queries per traced run (a prefix of the traced phase's).
constexpr size_t MaxReplay = 1500;

double usSince(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T).count();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

uint64_t delta(const LayerInputs &In, const std::string &Key) {
  auto A = In.StatsAfter.find(Key), B = In.StatsBefore.find(Key);
  uint64_t After = A == In.StatsAfter.end() ? 0 : A->second;
  uint64_t Before = B == In.StatsBefore.end() ? 0 : B->second;
  return After >= Before ? After - Before : 0;
}

/// Encodes \p Payload as a frame and decodes it back, like one trip
/// through a connection's codec.
void frameTrip(daemon::FrameType Type, uint64_t Id, std::string Payload) {
  daemon::Frame F;
  F.Type = Type;
  F.RequestId = Id;
  F.Payload = std::move(Payload);
  std::string Wire = daemon::encodeFrame(F);
  daemon::Frame Back;
  daemon::decodeFrame(Wire, Back);
}

} // namespace

void setLayer(Outcome &O, const std::string &Name, double Value) {
  for (Metric &M : O.Layer)
    if (M.Name == Name) {
      M.Value = Value;
      return;
    }
  O.Layer.push_back({Name, Value, ""});
}

const std::vector<std::pair<std::string, std::string>> &perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"daemon.self_us", "us"},
      {"daemon.protocol_us", "us"},
      {"daemon.admitted", "count"},
      {"daemon.overloaded", "count"},
      {"daemon.coalesced", "count"},
      {"daemon.degraded", "count"},
      {"client.overloaded_retries", "count"},
      {"client.transport_errors", "count"},
      {"verify.canonical_us", "us"},
      {"verify.cache_lookup_us", "us"},
      {"verify.cache.query_hit_ratio", "ratio"},
      {"verify.cache.traceset_hit_ratio", "ratio"},
      {"verify.cache.evictions", "count"},
      {"verify.cachestore_load_s", "s"},
      {"verify.theorems_us", "us"},
      {"lang.parse_us", "us"},
      {"lang.explore_us", "us"},
      {"lang.explore_states", "count"},
      {"trace.enumerate_us", "us"},
      {"trace.enumerate_states", "count"},
      {"trace.por_ratio", "ratio"},
      {"tso.tso_us", "us"},
      {"tso.pso_us", "us"},
      {"tso.states", "count"},
      {"tso.por_ratio", "ratio"},
      {"support.parallel_efficiency", "ratio"},
      {"racelog.scan_us", "us"},
      {"racelog.events", "count"},
      {"racelog.read_share_ratio", "ratio"},
      {"racelog.shard_efficiency", "ratio"},
      {"tracing.overhead_us", "us"},
  };
  return Names;
}

void replayLayers(const LayerInputs &In, Tracer &T, Outcome &O) {
  const BudgetSpec Ceiling = daemon::ServerOptions{}.QuotaCeiling;
  const BudgetSpec Spec = daemon::clampBudget(BudgetSpec{}, Ceiling);
  const size_t N = std::min(In.Queries.size(), MaxReplay);

  // The TSCS warm start, as the daemon does it (into the cache the
  // evaluator uses), and again into the call-by-call replay's own cache.
  BehaviourCache &Global = BehaviourCache::global();
  BehaviourCache Local;
  double LoadS = 0;
  if (!In.CacheFile.empty()) {
    Clock::time_point T0 = Clock::now();
    loadCacheStore(In.CacheFile, Global);
    LoadS = usSince(T0) / 1e6;
    loadCacheStore(In.CacheFile, Local);
  }

  // Pass A: the daemon's evaluator in-process; the round trip minus this
  // is what the daemon adds around it.
  BehaviourCache::CacheStats G0 = Global.stats();
  std::vector<daemon::QueryResponse> Answers(N);
  double SelfUs = 0;
  for (size_t I = 0; I < N; ++I) {
    Clock::time_point T0 = Clock::now();
    Answers[I] = daemon::evaluateQuery(In.Queries[I].Req, Ceiling);
    SelfUs += In.CallLatencyMs[I] * 1e3 - usSince(T0);
  }
  BehaviourCache::CacheStats G1 = Global.stats();

  // Pass B: each layer's public calls, one span each.
  uint64_t ExploreStates = 0, Explores = 0, EnumStates = 0, Enums = 0;
  uint64_t OracleStates = 0;
  double ProtocolUs = 0;
  for (size_t I = 0; I < N; ++I) {
    const QueryRequest &Q = In.Queries[I].Req;
    const uint64_t Id = In.Queries[I].Index;
    Tracer::Scope Root(T, "query", Id);
    {
      Tracer::Scope S(T, "daemon.protocol", Id, Root.id());
      Clock::time_point T0 = Clock::now();
      frameTrip(daemon::FrameType::Submit, Id, daemon::encodeSubmit(Q));
      QueryRequest Back;
      daemon::decodeSubmit(daemon::encodeSubmit(Q), Back);
      ProtocolUs += usSince(T0);
    }
    const bool Pair =
        Q.Kind == QueryKind::DrfGuarantee || Q.Kind == QueryKind::ThinAir;
    ParseResult P, PT;
    {
      Tracer::Scope S(T, "lang.parse", Id, Root.id());
      P = parseProgram(Q.Program);
      if (Pair)
        PT = parseProgram(Q.Transformed);
    }
    if (!P || (Pair && !PT))
      continue;
    std::string Key;
    {
      Tracer::Scope S(T, "verify.canonical", Id, Root.id());
      Key = canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.Program,
                              Q.Transformed, Spec);
    }
    Budget B(Spec);
    bool Hit;
    {
      Tracer::Scope S(T, "verify.cache_lookup", Id, Root.id());
      Hit = Local.queryFor(Key, &B).has_value();
    }
    if (!Hit) {
      if (Pair) {
        Tracer::Scope S(T, "verify.theorems", Id, Root.id());
        ExecLimits E;
        E.Shared = &B;
        if (Q.Kind == QueryKind::DrfGuarantee) {
          checkDrfGuarantee(*P.Prog, *PT.Prog, E);
        } else {
          ExploreLimits XL;
          XL.Shared = &B;
          checkThinAir(*P.Prog, *PT.Prog, freshConstantFor(*P.Prog), E, XL);
        }
      } else {
        ExploreLimits XL;
        XL.Shared = &B;
        ExploreStats XS;
        Traceset TS;
        {
          Tracer::Scope S(T, "lang.explore", Id, Root.id());
          TS = programTraceset(*P.Prog, defaultDomainFor(*P.Prog, 2), XL,
                               &XS);
        }
        ExploreStates += XS.Visited;
        ++Explores;
        EnumerationLimits EL;
        EL.Shared = &B;
        uint64_t Visited = 0;
        {
          Tracer::Scope S(T, "trace.enumerate", Id, Root.id());
          if (Q.Kind == QueryKind::ProgramDrf) {
            Visited = findAdjacentRace(TS, EL).Stats.Visited;
          } else {
            EnumerationStats ES;
            collectBehaviours(TS, EL, &ES);
            Visited = ES.Visited;
          }
        }
        EnumStates += Visited;
        ++Enums;
        // The unreduced oracle on the same traceset, outside any span.
        EnumerationLimits OL;
        OL.ExhaustiveOracle = true;
        if (Q.Kind == QueryKind::ProgramDrf) {
          OracleStates += findAdjacentRace(TS, OL).Stats.Visited;
        } else {
          EnumerationStats ES;
          collectBehaviours(TS, OL, &ES);
          OracleStates += ES.Visited;
        }
      }
      if (Answers[I].Status == daemon::ResponseStatus::Ok &&
          Answers[I].Kind != VerdictKind::Unknown) {
        BehaviourCache::CachedQuery E;
        E.Kind = Answers[I].Kind;
        E.Detail = Answers[I].Detail;
        E.CostVisits = B.visited();
        Local.insertQuery(Key, std::move(E), /*Notify=*/false);
      }
    }
    {
      Tracer::Scope S(T, "daemon.protocol", Id, Root.id());
      Clock::time_point T0 = Clock::now();
      std::string Payload = daemon::encodeResponse(Answers[I]);
      frameTrip(daemon::FrameType::Verdict, Id, Payload);
      daemon::QueryResponse Back;
      daemon::decodeResponse(Payload, Back);
      ProtocolUs += usSince(T0);
    }
  }

  std::map<std::string, Tracer::Aggregate> Agg = T.byName();
  auto MeanUs = [&](const char *Name) { return Agg[Name].meanUs(); };
  setLayer(O, "daemon.self_us", N ? SelfUs / N : 0);
  setLayer(O, "daemon.protocol_us", N ? ProtocolUs / N : 0);
  setLayer(O, "daemon.admitted", delta(In, "admitted"));
  setLayer(O, "daemon.overloaded", delta(In, "overloaded"));
  setLayer(O, "daemon.coalesced", delta(In, "coalesced"));
  setLayer(O, "daemon.degraded", delta(In, "degraded"));
  setLayer(O, "client.overloaded_retries", In.OverloadedRetries);
  setLayer(O, "client.transport_errors", In.TransportErrors);
  setLayer(O, "verify.canonical_us", MeanUs("verify.canonical"));
  setLayer(O, "verify.cache_lookup_us", MeanUs("verify.cache_lookup"));
  uint64_t QH = delta(In, "cache-query-hits");
  uint64_t QM = delta(In, "cache-query-misses");
  setLayer(O, "verify.cache.query_hit_ratio", ratio(QH, QH + QM));
  uint64_t TH = G1.TracesetHits - G0.TracesetHits;
  uint64_t TM = G1.TracesetMisses - G0.TracesetMisses;
  setLayer(O, "verify.cache.traceset_hit_ratio", ratio(TH, TH + TM));
  setLayer(O, "verify.cache.evictions", delta(In, "cache-evictions"));
  setLayer(O, "verify.cachestore_load_s", LoadS);
  setLayer(O, "verify.theorems_us", MeanUs("verify.theorems"));
  setLayer(O, "lang.parse_us", MeanUs("lang.parse"));
  setLayer(O, "lang.explore_us", MeanUs("lang.explore"));
  setLayer(O, "lang.explore_states", ratio(ExploreStates, Explores));
  setLayer(O, "trace.enumerate_us", MeanUs("trace.enumerate"));
  setLayer(O, "trace.enumerate_states", ratio(EnumStates, Enums));
  setLayer(O, "trace.por_ratio", ratio(EnumStates, OracleStates));
  setLayer(O, "tracing.overhead_us", In.TracingOverheadUs);
}

} // namespace tsbench
