//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon workloads (serve_cold, serve_repeat, campaign_burst): closed
/// loops from one process against a daemon child, then every verdict is
/// checked against its reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Daemon.h"
#include "Layers.h"
#include "Spans.h"

#include "daemon/Server.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace tsbench {

using namespace tracesafe;
using Clock = std::chrono::steady_clock;

namespace {


double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// The workload's query stream, shared by the connections. It is
/// generated before the timed phase; if a run outpaces that, the rest is
/// generated on demand (same queries, same order).
class Source {
public:
  Source(std::function<StreamQuery()> Gen, size_t Pregenerate)
      : Gen(std::move(Gen)) {
    for (size_t I = 0; I < Pregenerate; ++I)
      Buf.push_back(this->Gen());
  }
  /// The next query. The reference stays valid: the deque only grows at
  /// its end, and nothing is modified once generated.
  const StreamQuery &take() {
    std::lock_guard<std::mutex> Lock(M);
    if (Pos == Buf.size()) {
      Buf.push_back(Gen());
      ++OnDemand;
    }
    return Buf[Pos++];
  }
  uint64_t onDemand() const { return OnDemand; }

private:
  std::function<StreamQuery()> Gen;
  std::mutex M;
  std::deque<StreamQuery> Buf; ///< guarded by M
  size_t Pos = 0;              ///< guarded by M
  uint64_t OnDemand = 0;       ///< guarded by M
};

struct Sample {
  const StreamQuery *Q = nullptr; ///< owned by the Source
  QueryResponse R;
  double LatencyMs = 0; ///< round trip (campaigns: per query share)
  bool Threw = false; ///< the client gave up (transport)
};

struct Phase {
  std::vector<Sample> Samples;
  std::vector<Op> Ops; ///< per query, or per campaign
};

double inputBytes(const QueryRequest &Q) {
  return static_cast<double>(Q.Program.size() + Q.Transformed.size());
}

struct Clients {
  std::vector<std::unique_ptr<daemon::DaemonClient>> All;
  daemon::DaemonClient::Stats total() const {
    daemon::DaemonClient::Stats S;
    for (const auto &C : All) {
      S.Retries += C->stats().Retries;
      S.TransportErrors += C->stats().TransportErrors;
      S.OverloadedRetries += C->stats().OverloadedRetries;
    }
    return S;
  }
};

/// One connection per thread, one query outstanding per connection.
Phase closedLoop(Clients &Cs, double Seconds, Source &Src, Tracer *T) {
  Phase P;
  std::mutex M;
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (auto &Client : Cs.All)
    Threads.emplace_back([&, C = Client.get()] {
      std::vector<Sample> Mine;
      std::vector<Op> MyOps;
      while (secondsSince(Start) < Seconds) {
        Sample S;
        S.Q = &Src.take();
        int64_t Span = T ? T->begin("daemon.call", S.Q->Index) : -1;
        Clock::time_point T0 = Clock::now();
        try {
          S.R = C->call(S.Q->Req);
        } catch (const daemon::ProtocolError &) {
          S.Threw = true;
        }
        S.LatencyMs = secondsSince(T0) * 1e3;
        if (T)
          T->end(Span);
        double Ok = S.Threw ? 0 : 1;
        MyOps.push_back({secondsSince(Start), S.LatencyMs, Ok, Ok,
                         Ok * inputBytes(S.Q->Req)});
        Mine.push_back(std::move(S));
      }
      std::lock_guard<std::mutex> Lock(M);
      for (Sample &S : Mine)
        P.Samples.push_back(std::move(S));
      P.Ops.insert(P.Ops.end(), MyOps.begin(), MyOps.end());
    });
  for (std::thread &Th : Threads)
    Th.join();
  return P;
}

/// One connection sending whole campaigns through callBatch.
Phase campaignLoop(Clients &Cs, double Seconds, Source &Src, size_t Burst,
                   Tracer *T) {
  Phase P;
  daemon::DaemonClient &C = *Cs.All.front();
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < Seconds) {
    std::vector<const StreamQuery *> Qs;
    std::vector<QueryRequest> Reqs;
    for (size_t I = 0; I < Burst; ++I) {
      Qs.push_back(&Src.take());
      Reqs.push_back(Qs.back()->Req);
    }
    int64_t Span = T ? T->begin("daemon.call", Qs.front()->Index) : -1;
    Clock::time_point T0 = Clock::now();
    std::vector<QueryResponse> Rs;
    bool Threw = false;
    try {
      Rs = C.callBatch(Reqs);
    } catch (const daemon::ProtocolError &) {
      Threw = true;
    }
    double Ms = secondsSince(T0) * 1e3;
    if (T)
      T->end(Span);
    double Bytes = 0;
    for (const QueryRequest &Q : Reqs)
      Bytes += inputBytes(Q);
    double Done = Threw ? 0 : static_cast<double>(Qs.size());
    P.Ops.push_back({secondsSince(Start), Ms, Done, Done, Threw ? 0 : Bytes});
    for (size_t I = 0; I < Qs.size(); ++I) {
      Sample S;
      S.Q = Qs[I];
      S.Threw = Threw;
      if (!Threw)
        S.R = Rs[I];
      S.LatencyMs = Ms / Qs.size(); // the campaign's time per query
      P.Samples.push_back(std::move(S));
    }
  }
  return P;
}

/// Accounts every sample of \p Samples, checking each verdict against its
/// reference: pool variants against the pool's, the rest against fresh
/// ones computed here, after the daemon has stopped.
void checkAll(const std::vector<const Sample *> &Samples,
              const std::vector<Reference> &PoolRefs, unsigned Nproc,
              Outcome &O) {
  std::vector<QueryRequest> Fresh;
  for (const Sample *S : Samples)
    if (S->Q->PoolOrigin < 0)
      Fresh.push_back(S->Q->Req);
  std::vector<Reference> FreshRefs = referencesFor(Fresh, Nproc);
  size_t NextFresh = 0;
  for (const Sample *S : Samples) {
    const Reference &Ref = S->Q->PoolOrigin >= 0
                               ? PoolRefs[S->Q->PoolOrigin]
                               : FreshRefs[NextFresh++];
    if (S->Threw) {
      O.failed(O.TransportErrors);
      continue;
    }
    switch (S->R.Status) {
    case daemon::ResponseStatus::Ok:
      account(O, checkResponse(S->Q->Req, S->R, Ref));
      break;
    case daemon::ResponseStatus::Overloaded:
      O.failed(O.FinalOverloaded);
      break;
    case daemon::ResponseStatus::BadRequest:
      O.failed(O.BadRequests);
      break;
    case daemon::ResponseStatus::Error:
      O.failed(O.TransportErrors);
      break;
    }
  }
}

enum class ServeKind { Cold, Repeat, Campaign };

Outcome runServe(const RunConfig &C, ServeKind Kind) {
  Outcome O;
  const unsigned Nproc = C.Nproc;
  // Client connections plus daemon workers never exceed nproc.
  const unsigned Conns =
      Kind == ServeKind::Campaign ? 1 : std::max(1u, Nproc / 2);
  DaemonConfig DC;
  DC.Workers = std::max(1u, Nproc > Conns ? Nproc - Conns : 1);
  const unsigned QueueCap = daemon::ServerOptions{}.QueueCap;
  const size_t Burst = 4 * QueueCap;

  ColdGenerator Cold(C.Seed);
  std::vector<StreamQuery> Pool;
  std::vector<Reference> PoolRefs;
  if (Kind == ServeKind::Repeat) {
    // Prep: a pool of serve_cold-style verdicts, spilled into a TSCS file
    // by a daemon that is then stopped. Not part of set-up.
    for (size_t I = 0; I < 1000; ++I)
      Pool.push_back(Cold.next());
    DaemonConfig Prep = DC;
    Prep.CacheFile = C.RunDir + "/pool.tscs";
    Prep.SocketPath = C.RunDir + "/prep.sock";
    Prep.JournalPath = C.RunDir + "/prep.journal";
    Prep.Workers = std::max(1u, Nproc - 1);
    DaemonProcess D(C.SelfExe, Prep);
    daemon::DaemonClient Client(clientOptions(Prep.SocketPath, "prep", 1));
    for (size_t I = 0; I < Pool.size(); I += 32) {
      std::vector<QueryRequest> Chunk;
      for (size_t J = I; J < std::min(Pool.size(), I + 32); ++J)
        Chunk.push_back(Pool[J].Req);
      Client.callBatch(Chunk);
    }
    D.stop();
    // The serving daemon spills fresh verdicts into its own copy; the
    // traced replay starts from the pool alone, as the daemon did.
    DC.CacheFile = C.RunDir + "/serve.tscs";
    std::filesystem::copy_file(Prep.CacheFile, DC.CacheFile);
    std::vector<QueryRequest> PoolReqs;
    for (const StreamQuery &S : Pool)
      PoolReqs.push_back(S.Req);
    PoolRefs = referencesFor(PoolReqs, Nproc);
  }

  RepeatGenerator Repeat(C.Seed, Pool, Cold);
  std::function<StreamQuery()> Gen;
  size_t Pregenerate = 0;
  switch (Kind) {
  case ServeKind::Cold:
    Gen = [&] { return Cold.next(); };
    Pregenerate = static_cast<size_t>(C.Seconds * 3000);
    break;
  case ServeKind::Repeat:
    Gen = [&] { return Repeat.next(); };
    Pregenerate = static_cast<size_t>(C.Seconds * 10000);
    break;
  case ServeKind::Campaign:
    Gen = [&] { return Cold.nextDrfGuarantee(); };
    Pregenerate = 4 * Burst;
    break;
  }
  Source Src(Gen, Pregenerate);

  // Set-up: spawn to accepting connections, several times; the last
  // daemon serves the timed phase.
  std::unique_ptr<DaemonProcess> D;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    if (D)
      D->stop();
    DC.SocketPath = C.RunDir + "/d" + std::to_string(I) + ".sock";
    DC.JournalPath = C.RunDir + "/d" + std::to_string(I) + ".journal";
    D = std::make_unique<DaemonProcess>(C.SelfExe, DC);
    O.SetupS.push_back(D->setupSeconds());
  }

  Clients Cs;
  for (unsigned I = 0; I < Conns; ++I)
    Cs.All.push_back(std::make_unique<daemon::DaemonClient>(clientOptions(
        DC.SocketPath, "bench-" + std::to_string(I), C.Seed + I)));
  auto RunPhase = [&](double Seconds, Tracer *T) {
    return Kind == ServeKind::Campaign
               ? campaignLoop(Cs, Seconds, Src, Burst, T)
               : closedLoop(Cs, Seconds, Src, T);
  };

  Phase Main, Traced;
  std::map<std::string, uint64_t> Before, After;
  daemon::DaemonClient::Stats ClientBefore, ClientAfter;
  Tracer T;
  if (!C.Trace) {
    StealMonitor Steal;
    Main = RunPhase(C.Seconds, nullptr);
    O.Steal = Steal.finish();
  } else {
    // Untraced then traced halves; their difference is the overhead.
    StealMonitor Steal;
    Main = RunPhase(C.Seconds / 2, nullptr);
    O.Steal = Steal.finish();
    Before = statsSnapshot(*Cs.All.front());
    ClientBefore = Cs.total();
    Traced = RunPhase(C.Seconds / 2, &T);
    ClientAfter = Cs.total();
    After = statsSnapshot(*Cs.All.front());
  }
  O.PeakRssMb = D->peakRssMb();
  daemon::DaemonClient::Stats CT = Cs.total();
  Cs.All.clear();
  D->stop();

  O.Ops = Main.Ops;
  std::vector<const Sample *> All;
  for (const Phase *P : {&Main, &Traced})
    for (const Sample &S : P->Samples)
      All.push_back(&S);
  checkAll(All, PoolRefs, Nproc, O);
  O.OverloadedRetries = CT.OverloadedRetries;
  O.Retries = CT.Retries;
  O.Notes.push_back(
      "load: closed loop, " + std::to_string(Conns) + " connection(s), " +
      std::to_string(DC.Workers) + " daemon worker(s), queue cap " +
      std::to_string(QueueCap) +
      (Kind == ServeKind::Campaign
           ? ", campaigns of " + std::to_string(Burst) + " queries"
           : std::string(", one query outstanding per connection")) +
      "; client retries=" + std::to_string(CT.Retries) +
      " overloaded-retries=" + std::to_string(CT.OverloadedRetries) +
      " transport-errors=" + std::to_string(CT.TransportErrors) +
      " queries-generated-on-demand=" + std::to_string(Src.onDemand()));

  if (C.Trace) {
    std::vector<StreamQuery> Qs;
    std::vector<double> Lat;
    for (const Sample &S : Traced.Samples)
      if (!S.Threw) {
        Qs.push_back(*S.Q);
        Lat.push_back(S.LatencyMs);
      }
    LayerInputs In;
    In.Queries = std::move(Qs);
    In.CallLatencyMs = std::move(Lat);
    In.CacheFile = Kind == ServeKind::Repeat ? C.RunDir + "/pool.tscs" : "";
    In.StatsBefore = Before;
    In.StatsAfter = After;
    In.OverloadedRetries =
        ClientAfter.OverloadedRetries - ClientBefore.OverloadedRetries;
    In.TransportErrors =
        ClientAfter.TransportErrors - ClientBefore.TransportErrors;
    In.TracingOverheadUs =
        (medianLatencyMs(Traced.Ops) - medianLatencyMs(Main.Ops)) * 1e3;
    replayLayers(In, T, O);
    T.write(C.OutDir + "/" + C.Workload + "-seed" + std::to_string(C.Seed) +
            "-spans.jsonl");
  }
  return O;
}

} // namespace

Outcome runServeCold(const RunConfig &C) {
  return runServe(C, ServeKind::Cold);
}
Outcome runServeRepeat(const RunConfig &C) {
  return runServe(C, ServeKind::Repeat);
}
Outcome runCampaignBurst(const RunConfig &C) {
  return runServe(C, ServeKind::Campaign);
}

} // namespace tsbench
