//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests for the tracesafed server: verdict correctness against
/// the shared evaluateQuery oracle, structured Overloaded under
/// oversubscription (the daemon sheds, it never hangs), idempotent request
/// ids (a retry never recomputes or double-charges), per-request
/// cancellation, exception containment with oracle degradation, and the
/// client library's retry/backoff under injected transport faults.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "daemon/Server.h"
#include "daemon/Transport.h"
#include "lang/Parser.h"
#include "support/Failure.h"
#include "verify/BehaviourCache.h"
#include "verify/CacheStore.h"
#include "verify/Canonical.h"
#include "verify/Checks.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

/// Deterministic ceiling: no wall clock, so verdicts (including Visited)
/// are byte-identical across runs and machines.
const BudgetSpec TestCeiling{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                             /*MaxMemoryBytes=*/128ULL << 20};

std::string uniqueSocket(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("tracesafed_test_" + std::string(Tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".sock"))
      .string();
}

/// Runs a server on a background thread for the duration of a test.
/// Handles unix, TCP (ListenAddress; an ephemeral ":0" port is resolved
/// through BoundTcpPort and exposed via tcpAddress()), or both.
class ServerFixture {
public:
  explicit ServerFixture(ServerOptions O) : Opts(std::move(O)) {
    if (Opts.QuotaCeiling.DeadlineMs == 10'000) // default -> deterministic
      Opts.QuotaCeiling = TestCeiling;
    Opts.Stop = &Stop;
    if (!Opts.ListenAddress.empty())
      Opts.BoundTcpPort = &TcpPort;
    Thread = std::thread([this] { Rc = runServer(Opts, &Stats); });
    for (int I = 0; I < 500; ++I) {
      bool Up = true;
      if (!Opts.SocketPath.empty()) {
        // The unix listener is up once the socket path accepts a
        // connection.
        int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un Addr{};
        Addr.sun_family = AF_UNIX;
        std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                      Opts.SocketPath.c_str());
        Up = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                       sizeof(Addr)) == 0;
        ::close(Fd);
      }
      // The TCP listener is up once the bound port is published.
      Up = Up && (Opts.ListenAddress.empty() || TcpPort.load() != 0);
      if (Up)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server did not come up";
  }

  /// "127.0.0.1:port" of the TCP listener (requires ListenAddress).
  std::string tcpAddress() const {
    return "127.0.0.1:" + std::to_string(TcpPort.load());
  }

  ServerStats shutdown() {
    if (Thread.joinable()) {
      Stop.request();
      Thread.join();
    }
    EXPECT_EQ(Rc, 0);
    return Stats;
  }

  ~ServerFixture() {
    shutdown();
    std::remove(Opts.SocketPath.c_str());
  }

  ServerOptions Opts;

private:
  CancelToken Stop;
  ServerStats Stats;
  std::atomic<uint16_t> TcpPort{0};
  int Rc = -1;
  std::thread Thread;
};

QueryRequest drfQuery(const std::string &Src) {
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = Src;
  return Q;
}

/// Racy program with a deliberately large interleaving space: keeps a
/// query in flight long enough for admission control to be observable.
/// Salted through a stored constant — an identifier salt would be
/// alpha-renamed away by the canonical verdict key, and the queries
/// would coalesce into one flight instead of loading the queue.
std::string slowProgram(unsigned Salt) {
  std::string P;
  for (int T = 0; T < 3; ++T) {
    P += "thread { ";
    for (int I = 0; I < 5; ++I)
      P += "x := " + std::to_string(I % 2 + 2 * (Salt + 1)) + "; r" +
           std::to_string(T) + " := x; ";
    P += "}\n";
  }
  return P;
}

TEST(Daemon, VerdictsMatchTheSharedEvaluator) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("verdicts");
  ServerFixture Server(O);

  std::vector<QueryRequest> Qs;
  Qs.push_back(drfQuery("thread { x := 1; }\nthread { r0 := x; }\n"));
  Qs.push_back(drfQuery(
      "thread { sync m { x := 1; } }\nthread { sync m { r0 := x; } }\n"));
  {
    QueryRequest Q;
    Q.Kind = QueryKind::Behaviours;
    Q.Program = "thread { x := 1; r0 := x; print r0; }\n";
    Qs.push_back(Q);
  }
  {
    QueryRequest Q;
    Q.Kind = QueryKind::DrfGuarantee;
    Q.Program = "thread { sync m { x := 1; x := 2; } }\n"
                "thread { sync m { r0 := x; print r0; } }\n";
    Q.Transformed = "thread { sync m { x := 2; } }\n"
                    "thread { sync m { r0 := x; print r0; } }\n";
    Qs.push_back(Q);
  }
  {
    QueryRequest Q;
    Q.Kind = QueryKind::ThinAir;
    Q.Program = "thread { r2 := y; x := r2; print r2; }\n"
                "thread { r1 := x; y := r1; }\n";
    Q.Transformed = Q.Program;
    Qs.push_back(Q);
  }

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "verdict-test";
  DaemonClient Client(CO);
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    QueryResponse Want = evaluateQuery(Qs[I], TestCeiling);
    EXPECT_EQ(Got[I].str(), Want.str()) << "query " << I;
    EXPECT_EQ(Got[I].Status, ResponseStatus::Ok);
    EXPECT_NE(Got[I].Kind, VerdictKind::Unknown) << "query " << I;
  }

  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, Qs.size());
  EXPECT_EQ(S.Completed, Qs.size());
  EXPECT_EQ(S.Overloaded, 0u);
}

TEST(Daemon, BadRequestsAreStructuredNotFatal) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("badreq");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "badreq-test";
  DaemonClient Client(CO);

  QueryResponse R = Client.call(drfQuery("thread { this is not a program"));
  EXPECT_EQ(R.Status, ResponseStatus::BadRequest);
  EXPECT_NE(R.Detail.find("parse error"), std::string::npos);

  // The connection and the server survive: a valid query still works.
  QueryResponse Ok = Client.call(drfQuery("thread { x := 1; }\n"));
  EXPECT_EQ(Ok.Status, ResponseStatus::Ok);
}

TEST(Daemon, OversubscriptionShedsWithStructuredOverloaded) {
  // 4x oversubscription against a queue of 2: the daemon must answer
  // every request — some Ok, some Overloaded — and never hang.
  ServerOptions O;
  O.SocketPath = uniqueSocket("overload");
  O.QueueCap = 2;
  O.PerClientCap = 2;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "overload-test";
  CO.RetryOverloaded = false; // surface the shedding
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 8; ++I)
    Qs.push_back(drfQuery(slowProgram(I)));
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), 8u);

  unsigned Ok = 0, Shed = 0;
  for (const QueryResponse &R : Got) {
    if (R.Status == ResponseStatus::Ok)
      ++Ok;
    else if (R.Status == ResponseStatus::Overloaded)
      ++Shed;
  }
  EXPECT_EQ(Ok + Shed, 8u) << "every request gets a structured answer";
  EXPECT_GE(Ok, 1u);
  EXPECT_GE(Shed, 1u) << "4x oversubscription must shed";
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Overloaded, Shed);
  EXPECT_EQ(S.Admitted + S.Overloaded, 8u);
}

TEST(Daemon, OverloadedRetriesEventuallyComplete) {
  // Same oversubscription, but the client retries shed requests through
  // its backoff: everything completes, nothing hangs.
  ServerOptions O;
  O.SocketPath = uniqueSocket("retryover");
  O.QueueCap = 2;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "retryover-test";
  CO.RetryOverloaded = true;
  CO.BackoffCapMs = 50;
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 8; ++I)
    Qs.push_back(drfQuery(slowProgram(I)));
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  for (const QueryResponse &R : Got)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
}

TEST(Daemon, RetransmittedRequestIdsAreIdempotent) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("idem");
  ServerFixture Server(O);

  // Two clients with the same name and the same FirstRequestId simulate a
  // reconnecting client retransmitting its batch: the second submission
  // must replay stored verdicts, not recompute or re-admit.
  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "idem-test";
  CO.FirstRequestId = 1;
  QueryResponse First, Second;
  {
    DaemonClient A(CO);
    First = A.call(Q);
  }
  {
    DaemonClient B(CO); // same identity, same request id
    Second = B.call(Q);
  }
  EXPECT_EQ(First.str(), Second.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 1u) << "the retry must not be re-admitted";
  EXPECT_EQ(S.Completed, 1u) << "the retry must not recompute";
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, TheFirstIdStillReplaysAfterManyCompletions) {
  // A completed request keeps only its verdict; that is still enough to
  // replay it, byte for byte, long after it finished.
  ServerOptions O;
  O.SocketPath = uniqueSocket("horizon");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "horizon-test";
  CO.FirstRequestId = 1;
  const unsigned Many = 200;
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < Many; ++I)
    Qs.push_back(drfQuery("thread { x" + std::to_string(I) +
                          " := 1; }\nthread { r0 := x" + std::to_string(I) +
                          "; }\n"));
  std::vector<QueryResponse> Got;
  {
    DaemonClient A(CO); // ids 1, 2, ... in call order
    for (const QueryRequest &Q : Qs)
      Got.push_back(A.call(Q));
  }
  ASSERT_EQ(Got.size(), Many);
  QueryResponse Retry;
  {
    DaemonClient B(CO); // same identity: its first id is id 1 again
    Retry = B.call(Qs.front());
  }
  EXPECT_EQ(Retry.str(), Got.front().str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, Many) << "the retry must not be re-admitted";
  EXPECT_EQ(S.Completed, Many) << "the retry must not recompute";
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, CancelAbortsAnInflightQuery) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("cancel");
  // Big visit ceiling: the query would run a long time if not cancelled.
  O.QuotaCeiling = BudgetSpec{0, 50'000'000, 512ULL << 20};
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "cancel-test";
  DaemonClient Client(CO);

  std::string Big;
  for (int T = 0; T < 4; ++T) {
    Big += "thread { ";
    for (int I = 0; I < 6; ++I)
      Big += "x := " + std::to_string(I) + "; r" + std::to_string(T) +
             " := x; ";
    Big += "}\n";
  }
  uint64_t Id = Client.nextRequestId();
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    DaemonClient Side(CO); // separate connection, same client name
    Side.cancel(Id);
  });
  QueryResponse R = Client.call(drfQuery(Big));
  Canceller.join();
  // Either the cancel landed (Unknown/Cancelled) or the query finished
  // first; it must never hang or crash.
  if (R.Kind == VerdictKind::Unknown) {
    EXPECT_EQ(R.Reason, TruncationReason::Cancelled);
  }
}

TEST(Daemon, EngineFaultsDegradeToTheSequentialOracle) {
  // A BehaviourCache fault inside the primary engine path must degrade
  // the query, not poison the daemon: the verdict is still computed (by
  // the oracle fallback or the cache's own recompute path) and later
  // queries are unaffected.
  ServerOptions O;
  O.SocketPath = uniqueSocket("degrade");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "degrade-test";
  DaemonClient Client(CO);

  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  QueryResponse Want = evaluateQuery(Q, TestCeiling);

  FaultPlan Plan;
  Plan.arm(FaultSite::BufferedIntern, 1, /*Repeat=*/1'000'000);
  Plan.arm(FaultSite::BehaviourCache, 1, /*Repeat=*/1'000'000);
  QueryResponse Got;
  {
    FaultPlan::Scope Armed(Plan);
    Got = Client.call(Q);
  }
  EXPECT_EQ(Got.Status, ResponseStatus::Ok);
  EXPECT_EQ(Got.Kind, Want.Kind) << "faults must not change the verdict";

  // Faults disarmed: the daemon answers normally again.
  QueryResponse After = Client.call(Q);
  EXPECT_EQ(After.Kind, Want.Kind);
}

TEST(Daemon, ClientRetriesThroughInjectedTransportFaults) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("retry");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "retry-test";
  CO.MaxAttempts = 32;
  CO.BackoffCapMs = 20;
  DaemonClient Client(CO);

  // The plan is process-global, so fires may land on either end of the
  // socket (client write, server read, server write, client read) — every
  // one of them must surface as a retried transport error, never a wrong
  // or lost verdict.
  FaultPlan Plan;
  Plan.arm(FaultSite::ProtoRead, 3, /*Repeat=*/2);
  Plan.arm(FaultSite::ProtoWrite, 5, /*Repeat=*/2);
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 6; ++I)
    Qs.push_back(drfQuery("thread { x := " + std::to_string(I % 2) +
                          "; }\nthread { r0 := x; }\n"));
  std::vector<QueryResponse> Got;
  {
    FaultPlan::Scope Armed(Plan);
    Got = Client.callBatch(Qs);
  }
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    EXPECT_EQ(Got[I].Status, ResponseStatus::Ok) << I;
    EXPECT_EQ(Got[I].str(), evaluateQuery(Qs[I], TestCeiling).str()) << I;
  }
  EXPECT_GT(Plan.totalFired(), 0u) << "the faults must actually fire";
  EXPECT_GE(Client.stats().TransportErrors + Server.shutdown().ProtoErrors,
            1u);
}

TEST(Daemon, AcceptAndAdmissionFaultsAreSurvivable) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("acceptfault");
  ServerFixture Server(O);
  FaultPlan Plan;
  Plan.arm(FaultSite::Accept, 1, /*Repeat=*/2);
  Plan.arm(FaultSite::Admission, 1, /*Repeat=*/1);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "acceptfault-test";
  CO.MaxAttempts = 32;
  CO.BackoffCapMs = 20;
  QueryResponse R;
  {
    FaultPlan::Scope Armed(Plan);
    DaemonClient Client(CO);
    R = Client.call(drfQuery("thread { x := 1; }\n"));
  }
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.Kind, VerdictKind::Proved);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.AcceptFaults + S.Overloaded, 1u);
}

TEST(Daemon, ClampBudgetIsFieldWise) {
  BudgetSpec Ceiling{1000, 500, 1 << 20};
  BudgetSpec Unlimited{};
  BudgetSpec C = clampBudget(Unlimited, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 1000);
  EXPECT_EQ(C.MaxVisited, 500u);
  EXPECT_EQ(C.MaxMemoryBytes, 1u << 20);
  BudgetSpec Tighter{10, 100, 1 << 10};
  C = clampBudget(Tighter, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 10);
  EXPECT_EQ(C.MaxVisited, 100u);
  BudgetSpec Looser{100'000, 50'000, 1ULL << 40};
  C = clampBudget(Looser, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 1000);
  EXPECT_EQ(C.MaxVisited, 500u);
  EXPECT_EQ(C.MaxMemoryBytes, 1u << 20);
  // A zero ceiling is unbounded: the request passes through.
  C = clampBudget(Looser, BudgetSpec{});
  EXPECT_EQ(C.MaxVisited, 50'000u);
}


TEST(Daemon, RaceLogQueriesAreServed) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("racelog");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "racelog-test";
  DaemonClient Client(CO);

  auto logQuery = [](std::string Log) {
    QueryRequest Q;
    Q.Kind = QueryKind::RaceLog;
    Q.Program = std::move(Log); // binary log image rides the Program field
    return Q;
  };
  racelog::SynthOptions SO;
  SO.Events = 4000;
  SO.Threads = 6;
  SO.Seed = 5;

  // Racy and race-free logs get definitive verdicts, identical to the
  // shared evaluator's (the chaos suite's replay contract).
  QueryRequest Racy = logQuery(racelog::makeMixedLog(SO));
  QueryRequest Clean = logQuery(racelog::makeLockHeavyLog(SO));
  QueryResponse RacyR = Client.call(Racy);
  EXPECT_EQ(RacyR.Status, ResponseStatus::Ok);
  EXPECT_EQ(RacyR.Kind, VerdictKind::Refuted);
  EXPECT_EQ(RacyR.str(), evaluateQuery(Racy, TestCeiling).str());
  QueryResponse CleanR = Client.call(Clean);
  EXPECT_EQ(CleanR.Kind, VerdictKind::Proved);
  EXPECT_EQ(CleanR.str(), evaluateQuery(Clean, TestCeiling).str());

  // Garbage bytes are a structured BadRequest, not a crash; the
  // connection survives for the next query.
  QueryResponse Bad = Client.call(logQuery("this is not a TSRL log"));
  EXPECT_EQ(Bad.Status, ResponseStatus::BadRequest);
  EXPECT_NE(Bad.Detail.find("bad log"), std::string::npos);

  // A torn tail over a race-free prefix is Unknown, with the tail noted.
  std::string Torn = racelog::makeLockHeavyLog(SO);
  Torn.resize(Torn.size() - 11);
  QueryResponse TornR = Client.call(logQuery(Torn));
  EXPECT_EQ(TornR.Status, ResponseStatus::Ok);
  EXPECT_EQ(TornR.Kind, VerdictKind::Unknown);
  EXPECT_NE(TornR.Detail.find("torn-tail"), std::string::npos);

  // The per-query quota applies: a tiny visit cap truncates with a
  // structured state-cap reason, never a wrong verdict.
  QueryRequest Capped = logQuery(racelog::makeLockHeavyLog(SO));
  Capped.Budget.MaxVisited = 100;
  QueryResponse CappedR = Client.call(Capped);
  EXPECT_EQ(CappedR.Kind, VerdictKind::Unknown);
  EXPECT_EQ(CappedR.Reason, TruncationReason::StateCap);
  Server.shutdown();
}

TEST(Daemon, RaceLogRetransmissionsReplayStoredVerdicts) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("racelogidem");
  ServerFixture Server(O);
  racelog::SynthOptions SO;
  SO.Events = 4000;
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program = racelog::makeMixedLog(SO);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "racelog-idem";
  CO.FirstRequestId = 1;
  QueryResponse First, Second;
  {
    DaemonClient A(CO);
    First = A.call(Q);
  }
  {
    DaemonClient B(CO); // same identity, same request id: a retransmit
    Second = B.call(Q);
  }
  // Byte-identical replay relies on the scan's deterministic Visited
  // (one visit per ingested event, whatever the engine configuration).
  EXPECT_EQ(First.str(), Second.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, TcpVerdictsMatchTheUnixTransport) {
  // Both listeners on one daemon: the protocol layer is shared, so the
  // same query must yield byte-identical verdicts over either transport
  // (the second arrives via the idempotent replay path — same client
  // name, same id — which also proves replay works across transports).
  ServerOptions O;
  O.SocketPath = uniqueSocket("tcp");
  O.ListenAddress = "127.0.0.1:0";
  ServerFixture Server(O);

  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  ClientOptions UnixCO;
  UnixCO.SocketPath = Server.Opts.SocketPath;
  UnixCO.Name = "transport-test";
  UnixCO.FirstRequestId = 1;
  QueryResponse OverUnix, OverTcp;
  {
    DaemonClient C(UnixCO);
    OverUnix = C.call(Q);
    EXPECT_EQ(C.negotiatedVersion(), ProtocolVersion);
  }
  ClientOptions TcpCO = UnixCO;
  setServerSpec(TcpCO, Server.tcpAddress());
  {
    DaemonClient C(TcpCO);
    OverTcp = C.call(Q);
    EXPECT_EQ(C.negotiatedVersion(), ProtocolVersion);
  }
  EXPECT_EQ(OverUnix.str(), OverTcp.str());
  EXPECT_EQ(OverUnix.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  // 3 = the fixture's unix readiness probe + the two clients.
  EXPECT_EQ(S.Connections, 3u);
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, StalledTcpReaderIsShedAndNeverBlocksOthers) {
  // The slow-client-shedding contract: a peer that stops reading while
  // the daemon streams at it fills its bounded outbound queue and is
  // dropped — its verdict stays journaled and replayable — while other
  // clients' queries keep completing. SendBufBytes shrinks the kernel's
  // send buffer to its floor so the writer actually blocks under test-
  // sized traffic.
  ServerOptions O;
  O.ListenAddress = "127.0.0.1:0";
  O.SendBufBytes = 1;         // clamped up to the kernel floor (~4KB)
  O.OutboundCapBytes = 2048;  // overflowed by the campaign's partials
  ServerFixture Server(O);

  // Raw stalled connection: v2 streaming handshake, one 256-sub campaign
  // (every partial verdict is a critical outbound frame), then silence —
  // the socket is deliberately never read again.
  std::string Host;
  uint16_t Port = 0;
  std::string Err;
  ASSERT_TRUE(parseHostPort(Server.tcpAddress(), Host, Port, Err));
  ConnectOutcome Outcome;
  int StallFd = connectTcp(Host, Port, 2000, Outcome, Err);
  ASSERT_GE(StallFd, 0) << Err;
  {
    Frame Hello;
    Hello.Type = FrameType::Hello;
    Hello.Flags = FrameFlagStreaming;
    Hello.Payload = encodeHello("stalled-reader");
    writeFrame(StallFd, Hello);
    std::string Buf;
    Frame Welcome;
    ASSERT_TRUE(readFrame(StallFd, Buf, Welcome));
    ASSERT_EQ(Welcome.Type, FrameType::Welcome);

    std::vector<QueryRequest> Subs(
        256, drfQuery("thread { x := 1; }\n"));
    Frame Submit;
    Submit.Type = FrameType::Submit;
    Submit.RequestId = 1;
    Submit.Payload = encodeSubmit(makeCampaign(Subs));
    writeFrame(StallFd, Submit);
  }

  // A live client on the same daemon: every query must complete while
  // the stalled connection backs up and is shed.
  ClientOptions CO;
  setServerSpec(CO, Server.tcpAddress());
  CO.Name = "live-client";
  DaemonClient Live(CO);
  for (unsigned I = 0; I < 4; ++I) {
    QueryResponse R =
        Live.call(drfQuery("thread { x := " + std::to_string(I) + "; }\n"));
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
    EXPECT_EQ(R.Kind, VerdictKind::Proved);
  }

  // The shed must actually happen (bounded wait for the campaign's
  // partial stream to overflow the queue).
  bool Shed = false;
  for (int I = 0; I < 1000 && !Shed; ++I) {
    QueryRequest SQ;
    SQ.Kind = QueryKind::Stats;
    QueryResponse R = Live.call(SQ);
    Shed = R.Detail.find("shed-slow=0") == std::string::npos;
    if (!Shed)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(Shed) << "the stalled reader was never shed";
  ::close(StallFd);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.SlowClientsShed, 1u);
  EXPECT_GE(S.Campaigns, 1u);
}

/// Program big enough to hit the 200k-visit test ceiling: a long-running,
/// deterministically-truncated query for scheduling tests. Salted through
/// a stored *constant* so repeats stay distinct under the canonical
/// verdict key (an identifier salt would be alpha-renamed away and the
/// queries would coalesce via single-flight instead of queueing).
std::string hugeProgram(unsigned Salt = 0) {
  std::string P;
  for (int T = 0; T < 4; ++T) {
    P += "thread { ";
    for (int I = 0; I < 6; ++I)
      P += "x := " + std::to_string(I + 10 * (Salt + 1)) + "; r" +
           std::to_string(T) + " := x; ";
    P += "}\n";
  }
  return P;
}

TEST(Daemon, InteractivePreemptsQueuedBatchWork) {
  // DispatchCap=1 serialises dispatch, so the class queues are
  // observable: with a convoy of slow batch queries admitted first, an
  // interactive query must jump the queue and complete while batch work
  // is still pending (asserted through the Stats query, no log
  // scraping).
  ServerOptions O;
  O.SocketPath = uniqueSocket("preempt");
  O.DispatchCap = 1;
  O.AgingThreshold = 100; // out of the way: pure preemption here
  ServerFixture Server(O);

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "batch-client";
  std::vector<QueryRequest> Batch;
  for (unsigned I = 0; I < 4; ++I) {
    QueryRequest Q = drfQuery(hugeProgram(I));
    Q.Class = ClientClass::Batch;
    Batch.push_back(Q);
  }
  std::vector<QueryResponse> BatchGot;
  std::thread BatchThread([&] {
    DaemonClient C(BCO);
    BatchGot = C.callBatch(Batch);
  });
  // Let the convoy get admitted (first running, rest queued).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ClientOptions ICO;
  ICO.SocketPath = Server.Opts.SocketPath;
  ICO.Name = "interactive-client";
  DaemonClient Interactive(ICO);
  QueryResponse R = Interactive.call(drfQuery("thread { x := 1; }\n"));
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.Kind, VerdictKind::Proved);

  // The moment the interactive verdict is back, batch work must still be
  // waiting: it was admitted strictly earlier and would have won FIFO.
  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  QueryResponse Stats = Interactive.call(SQ);
  EXPECT_NE(Stats.Detail.find("pend-batch="), std::string::npos);
  EXPECT_EQ(Stats.Detail.find("pend-batch=0"), std::string::npos)
      << "no batch pending when the interactive query finished: "
      << Stats.Detail;

  BatchThread.join();
  for (const QueryResponse &B : BatchGot)
    EXPECT_EQ(B.Status, ResponseStatus::Ok);
  Server.shutdown();
}

TEST(Daemon, AgingKeepsBatchStarvationFree) {
  // AgingThreshold=1: after one interactive dispatch while batch work
  // waits, the next dispatch must take the batch query even though
  // interactive work is still queued — the deterministic starvation-
  // freedom guarantee, visible as AgedDispatches.
  ServerOptions O;
  O.SocketPath = uniqueSocket("aging");
  O.DispatchCap = 1;
  O.AgingThreshold = 1;
  ServerFixture Server(O);

  ClientOptions ICO;
  ICO.SocketPath = Server.Opts.SocketPath;
  ICO.Name = "interactive-flood";
  // Distinct salts: a repeated program would be answered from the warm
  // behaviour cache in microseconds, closing the scheduling window —
  // and each query must run long enough (the full visit ceiling) that
  // interactive work is still queued when the batch query is aged in.
  std::vector<QueryRequest> Flood;
  for (unsigned I = 0; I < 6; ++I)
    Flood.push_back(drfQuery(hugeProgram(10 + I)));
  std::vector<QueryResponse> FloodGot;
  std::thread FloodThread([&] {
    DaemonClient C(ICO);
    FloodGot = C.callBatch(Flood);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "starved-batch";
  DaemonClient BatchClient(BCO);
  QueryRequest BQ = drfQuery("thread { y := 1; }\n");
  BQ.Class = ClientClass::Batch;
  QueryResponse B = BatchClient.call(BQ);
  EXPECT_EQ(B.Status, ResponseStatus::Ok);
  EXPECT_EQ(B.Kind, VerdictKind::Proved);

  FloodThread.join();
  for (const QueryResponse &R : FloodGot)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.AgedDispatches, 1u)
      << "the batch query must have been aged past waiting interactive "
         "work at least once";
}

TEST(Daemon, StreamingCampaignDeliversOrderedPartials) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("campaign");
  ServerFixture Server(O);

  std::vector<QueryRequest> Subs;
  Subs.push_back(drfQuery("thread { x := 1; }\nthread { r0 := x; }\n"));
  {
    QueryRequest Q;
    Q.Kind = QueryKind::DrfGuarantee;
    Q.Program = "thread { sync m { x := 1; x := 2; } }\n"
                "thread { sync m { r0 := x; print r0; } }\n";
    Q.Transformed = "thread { sync m { x := 2; } }\n"
                    "thread { sync m { r0 := x; print r0; } }\n";
    Subs.push_back(Q);
  }
  Subs.push_back(drfQuery("thread { sync m { x := 1; } }\n"));
  QueryRequest Camp = makeCampaign(Subs);
  QueryResponse Want = evaluateQuery(Camp, TestCeiling);

  // v2 streaming client: monotonic per-request Seq, one decodable
  // partial per sub-query in submission order, then the aggregate.
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "campaign-v2";
  CO.Streaming = true;
  uint64_t LastSeq = 0;
  bool SeqMonotonic = true;
  std::vector<QueryResponse> Partials;
  CO.OnProgress = [&](uint64_t, const ProgressUpdate &U) {
    if (U.Seq <= LastSeq)
      SeqMonotonic = false;
    LastSeq = U.Seq;
    if (U.Phase != ProgressPhase::Partial)
      return;
    QueryResponse Sub;
    ASSERT_TRUE(decodeResponse(U.Partial, Sub));
    ASSERT_EQ(U.SubIndex, Partials.size()) << "partials out of order";
    Partials.push_back(Sub);
  };
  QueryResponse Aggregate;
  {
    DaemonClient C(CO);
    Aggregate = C.call(Camp);
    EXPECT_GE(C.stats().ProgressFrames, Subs.size());
  }
  EXPECT_TRUE(SeqMonotonic);
  EXPECT_EQ(Aggregate.str(), Want.str());
  EXPECT_NE(Aggregate.Detail.find("campaign n=3"), std::string::npos);
  ASSERT_EQ(Partials.size(), Subs.size());
  for (size_t I = 0; I < Subs.size(); ++I)
    EXPECT_EQ(Partials[I].str(), evaluateQuery(Subs[I], TestCeiling).str())
        << "partial " << I;

  // A v1 client sends the same campaign and gets the same aggregate as
  // one whole frame: no Progress, no layout change.
  ClientOptions V1CO;
  V1CO.SocketPath = Server.Opts.SocketPath;
  V1CO.Name = "campaign-v1";
  V1CO.ForceV1 = true;
  V1CO.OnProgress = [&](uint64_t, const ProgressUpdate &) {
    ADD_FAILURE() << "a v1 connection must never receive Progress";
  };
  {
    DaemonClient C(V1CO);
    QueryResponse V1 = C.call(Camp);
    EXPECT_EQ(C.negotiatedVersion(), 1u);
    EXPECT_EQ(V1.str(), Want.str());
    EXPECT_EQ(C.stats().ProgressFrames, 0u);
  }
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Campaigns, 2u);
  EXPECT_GE(S.Streamed, Subs.size());
}

TEST(Daemon, StatsQueryKindSnapshotsCountersWithoutAdmission) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("stats");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "stats-test";
  DaemonClient Client(CO);

  EXPECT_EQ(Client.call(drfQuery("thread { x := 1; }\n")).Status,
            ResponseStatus::Ok);
  EXPECT_EQ(Client.call(drfQuery("thread { y := 1; }\n")).Status,
            ResponseStatus::Ok);

  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  // The fixture's readiness probe is a connection of its own, torn down
  // by its reader thread, which may not have run yet on a loaded host.
  // Snapshot until it has closed (bounded), counting the snapshots.
  QueryResponse R;
  uint64_t Snapshots = 0;
  for (int Try = 0; Try < 500; ++Try) {
    R = Client.call(SQ);
    ++Snapshots;
    if (R.Detail.find("open=1 ") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  // (No "connections=" check: the fixture's readiness probe also counts.)
  const std::string StatsKey =
      "stats-queries=" + std::to_string(Snapshots);
  for (const char *Key :
       {"open=1", "admitted=2", "completed=2", "in-flight=0",
        "pend-interactive=0", "pend-batch=0", "shed-slow=0", "reaped=0",
        "aged-dispatches=0", StatsKey.c_str()})
    EXPECT_NE(R.Detail.find(Key), std::string::npos)
        << "missing " << Key << " in: " << R.Detail;

  // The Stats kind is daemon-only and is never admitted or journaled.
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.StatsQueries, Snapshots);
  EXPECT_EQ(S.Admitted, 2u);
  QueryResponse Local = evaluateQuery(SQ, TestCeiling);
  EXPECT_EQ(Local.Status, ResponseStatus::BadRequest);
}

TEST(Daemon, OccupiedTcpPortFailsStartupCleanly) {
  // EADDRINUSE at startup is a clean, immediate, non-zero exit — not a
  // crash, not a half-alive daemon on a listener it doesn't own.
  std::string Err;
  uint16_t Port = 0;
  int Occupier = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(Occupier, 0) << Err;
  ServerOptions O;
  O.ListenAddress = "127.0.0.1:" + std::to_string(Port);
  CancelToken Stop;
  O.Stop = &Stop;
  ServerStats S;
  EXPECT_EQ(runServer(O, &S), 1);
  ::close(Occupier);
}

TEST(Daemon, PingDeadlineTurnsASilentServerIntoARetryableError) {
  // A fake "server" that completes the v2 handshake and then goes
  // permanently silent — a SIGSTOPped daemon, a TCP black hole. The
  // client's liveness loop must ping, miss the pong deadline, and
  // surface a retryable ProtocolError in bounded time instead of
  // hanging forever on the read.
  std::string Host;
  uint16_t Port = 0;
  std::string BoundErr;
  int ListenFd = listenTcp("127.0.0.1", 0, BoundErr, &Port);
  ASSERT_GE(ListenFd, 0) << BoundErr;
  std::atomic<bool> Done{false};
  std::thread FakeServer([&] {
    while (!Done.load()) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        break;
      try {
        std::string Buf;
        Frame Hello;
        if (readFrame(Fd, Buf, Hello) && Hello.Type == FrameType::Hello) {
          Frame Welcome;
          Welcome.Type = FrameType::Welcome;
          Welcome.Payload = encodeWelcome("black-hole", ProtocolVersion);
          writeFrame(Fd, Welcome);
        }
        // ... and never speak again. Drain pings so the client's writes
        // keep succeeding; silence is on the *response* side.
        Frame F;
        while (readFrame(Fd, Buf, F)) {
        }
      } catch (const ProtocolError &) {
      }
      ::close(Fd);
    }
  });

  ClientOptions CO;
  CO.Address = "127.0.0.1:" + std::to_string(Port);
  CO.Name = "liveness-test";
  CO.MaxAttempts = 2;
  CO.BackoffCapMs = 10;
  CO.PingIntervalMs = 100;
  CO.PingTimeoutMs = 100;
  DaemonClient Client(CO);
  auto Start = std::chrono::steady_clock::now();
  EXPECT_THROW(Client.call(drfQuery("thread { x := 1; }\n")),
               ProtocolError);
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  // Two attempts, each bounded by interval + timeout (plus slack): the
  // whole call fails in seconds, not minutes.
  EXPECT_LT(Elapsed, 5000);
  EXPECT_GE(Client.stats().PingsSent, 1u);
  EXPECT_GE(Client.stats().TransportErrors, 2u);

  Done.store(true);
  ::shutdown(ListenFd, SHUT_RDWR);
  ::close(ListenFd);
  FakeServer.join();
}

//===----------------------------------------------------------------------===//
// Verdict memoisation plane: single-flight dedup, verdict caching,
// persistent warm start.
//===----------------------------------------------------------------------===//

TEST(Daemon, IdenticalInFlightQueriesCoalesceIntoOneFlight) {
  // DispatchCap=1 makes coalescing deterministic: a long-running query
  // occupies the only dispatch slot, so the two identical queries behind
  // it are admitted-but-queued together — the third submit must attach to
  // the second as a follower instead of queueing its own computation.
  BehaviourCache::global().clear();
  ServerOptions O;
  O.SocketPath = uniqueSocket("singleflight");
  O.DispatchCap = 1;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "singleflight-test";
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  Qs.push_back(drfQuery(hugeProgram(77))); // blocks the dispatch slot
  // Alpha-variants of each other: same canonical key.
  Qs.push_back(drfQuery("thread { w := 41; r0 := w; r1 := w; }\n"));
  Qs.push_back(drfQuery("thread { q := 41; r5 := q; r6 := q; }\n"));
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), 3u);
  for (const QueryResponse &R : Got)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(Got[1].str(), Got[2].str())
      << "a fanned-out verdict must be byte-identical to the leader's";
  EXPECT_EQ(Got[2].Kind, VerdictKind::Proved);

  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 3u) << "followers are charged admission";
  EXPECT_EQ(S.Completed, 3u) << "followers complete with the leader";
  EXPECT_EQ(S.Coalesced, 1u);
}

TEST(Daemon, CampaignWarmRunsReplayTheColdCostExactly) {
  // Campaign sub-queries go through the verdict cache with cost replay,
  // so a warm campaign's aggregate — spent budget included — is
  // byte-identical to the cold one (warmth invariance end to end).
  BehaviourCache::global().clear();
  std::vector<QueryRequest> Subs;
  Subs.push_back(drfQuery("thread { c := 51; r0 := c; }\n"
                          "thread { c := 52; r1 := c; }\n"));
  Subs.push_back(drfQuery("thread { sync m { c := 53; } }\n"
                          "thread { sync m { r0 := c; } }\n"));
  {
    QueryRequest Q;
    Q.Kind = QueryKind::ThinAir;
    Q.Program =
        "thread { r2 := y; x := r2; }\nthread { r1 := x; y := r1; }\n";
    Q.Transformed = Q.Program;
    Subs.push_back(Q);
  }
  QueryRequest Camp = makeCampaign(Subs);
  QueryResponse Cold = evaluateQuery(Camp, TestCeiling);
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok);
  uint64_t MissesAfterCold = BehaviourCache::global().stats().QueryMisses;

  QueryResponse Warm = evaluateQuery(Camp, TestCeiling);
  EXPECT_EQ(Warm.str(), Cold.str())
      << "a warm campaign must be byte-identical, Visited included";
  EXPECT_EQ(Warm.Visited, Cold.Visited);
  BehaviourCache::CacheStats CS = BehaviourCache::global().stats();
  EXPECT_GE(CS.QueryHits, Subs.size())
      << "every sub-query must be served from the verdict cache";
  EXPECT_EQ(CS.QueryMisses, MissesAfterCold)
      << "the warm run must not miss";
}

TEST(Daemon, CachedVerdictsAreByteIdenticalAcrossWorkerWidths) {
  // The verdict cache is shared across daemon configurations: a verdict
  // computed at pool width 1 must serve (and equal a recomputation at)
  // width 4 — same bytes, Visited included.
  BehaviourCache::global().clear();
  QueryRequest Q = drfQuery("thread { d := 61; r0 := d; r1 := d; }\n"
                            "thread { d := 62; r2 := d; }\n");
  QueryResponse Cold, Warm, ColdWide;
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("width1");
    O.Workers = 1;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "width-test";
    DaemonClient C(CO);
    Cold = C.call(Q);
  }
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("width4");
    O.Workers = 4;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "width-test";
    DaemonClient C(CO);
    Warm = C.call(Q); // served from the cache carried across fixtures
    BehaviourCache::global().clear();
    ColdWide = C.call(Q); // recomputed cold at width 4
  }
  EXPECT_EQ(Cold.Status, ResponseStatus::Ok);
  EXPECT_EQ(Cold.Kind, VerdictKind::Refuted);
  EXPECT_EQ(Warm.str(), Cold.str());
  EXPECT_EQ(ColdWide.str(), Cold.str());
}

TEST(Daemon, StatsExposeTheMemoisationCounters) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("memostats");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "memostats-test";
  DaemonClient Client(CO);

  QueryResponse First =
      Client.call(drfQuery("thread { e := 71; r0 := e; }\n"));
  uint64_t HitsAfterFirst = BehaviourCache::global().stats().QueryHits;
  // An alpha-variant: same canonical key, served from the verdict cache.
  QueryResponse Second =
      Client.call(drfQuery("thread { f := 71; r9 := f; }\n"));
  EXPECT_EQ(Second.str(), First.str());
  EXPECT_GE(BehaviourCache::global().stats().QueryHits, HitsAfterFirst + 1);

  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  QueryResponse R = Client.call(SQ);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  for (const char *Key :
       {"coalesced=", "cache-hits=", "cache-misses=", "cache-query-hits=",
        "cache-query-misses=", "cache-bytes=", "cache-evictions=",
        "persist-loaded=", "persist-spilled="})
    EXPECT_NE(R.Detail.find(Key), std::string::npos)
        << "missing " << Key << " in: " << R.Detail;
  Server.shutdown();
}

TEST(Daemon, PersistentCacheWarmStartsARestartedDaemon) {
  BehaviourCache::global().clear();
  std::string CachePath = uniqueSocket("cachefile") + ".cache";
  QueryRequest Q = drfQuery("thread { h := 81; r0 := h; }\n"
                            "thread { h := 82; r1 := h; }\n");
  QueryResponse Cold;
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("persist1");
    O.CacheFile = CachePath;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "persist-test";
    DaemonClient C(CO);
    Cold = C.call(Q);
    EXPECT_EQ(Cold.Status, ResponseStatus::Ok);
    EXPECT_EQ(Cold.Kind, VerdictKind::Refuted);
    ServerStats S = Server.shutdown();
    EXPECT_GE(S.PersistSpilled, 1u)
        << "the fresh verdict must have been spilled to the store";
    EXPECT_EQ(S.PersistLoaded, 0u);
  }
  // A restarted daemon process starts cache-cold; simulate the restart by
  // clearing the in-process global cache before the second fixture.
  BehaviourCache::global().clear();
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("persist2");
    O.CacheFile = CachePath;
    ServerFixture Server(O);
    uint64_t Hits0 = BehaviourCache::global().stats().QueryHits;
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "persist-test";
    DaemonClient C(CO);
    QueryResponse Warm = C.call(Q);
    EXPECT_EQ(Warm.str(), Cold.str())
        << "a warm-started verdict must be byte-identical to the cold one";
    EXPECT_GE(BehaviourCache::global().stats().QueryHits, Hits0 + 1)
        << "the restarted daemon must answer from the loaded store";
    ServerStats S = Server.shutdown();
    EXPECT_GE(S.PersistLoaded, 1u);
  }
  std::remove(CachePath.c_str());
}

TEST(Daemon, StoredPairVerdictsOfAnEarlierEngineMiss) {
  // A --cache-file written before the pair engine holds DrfGuarantee
  // verdicts under their bare canonical key, at the execution checkers'
  // cost. A hit replays the stored cost, so such an entry must miss: the
  // answer after loading it equals the cold one, Visited included.
  QueryRequest Q;
  Q.Kind = QueryKind::DrfGuarantee;
  Q.Program = "thread { lock m; g := 91; r0 := g; unlock m; }\n"
              "thread { lock m; r1 := g; unlock m; }\n";
  Q.Transformed = "thread { lock m; g := 91; r0 := 91; unlock m; }\n"
                  "thread { lock m; r1 := g; unlock m; }\n";
  BehaviourCache::global().clear();
  QueryResponse Cold = evaluateQuery(Q, TestCeiling);
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok);
  ASSERT_EQ(Cold.Kind, VerdictKind::Proved);

  BudgetSpec Spec = clampBudget(Q.Budget, TestCeiling);
  Budget Oracle(Spec);
  ExecLimits E;
  E.Shared = &Oracle;
  checkDrfGuarantee(*parseProgram(Q.Program).Prog,
                    *parseProgram(Q.Transformed).Prog, E);
  ASSERT_NE(Oracle.visited(), Cold.Visited)
      << "the two engines must charge differently for this test to bite";

  std::string StorePath = uniqueSocket("legacy") + ".cache";
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(StorePath, Err)) << Err;
    BehaviourCache::CachedQuery Entry;
    Entry.Kind = Cold.Kind;
    Entry.Reason = Cold.Reason;
    Entry.Detail = Cold.Detail;
    Entry.CostVisits = Oracle.visited();
    Entry.CostBytes = Oracle.chargedBytes();
    Store.append(canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.Program,
                                   Q.Transformed, Spec),
                 Entry);
    Store.close();
  }
  BehaviourCache::global().clear();
  EXPECT_EQ(loadCacheStore(StorePath, BehaviourCache::global()).Loaded, 1u);
  QueryResponse Warm = evaluateQuery(Q, TestCeiling);
  EXPECT_EQ(Warm.str(), Cold.str());
  std::remove(StorePath.c_str());
  BehaviourCache::global().clear();
}

TEST(Daemon, FreshStartBeginsANewJournal) {
  // Run 1 answers X as (client, 1), run 2 is a fresh start that stops at
  // once, run 3 resumes and is asked Y as (client, 1): the default name
  // and first id of every library client. Had run 2 kept run 1's
  // records, run 3 would replay X's verdict for Y.
  std::string Journal = uniqueSocket("fresh") + ".journal";
  const QueryRequest X = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  const QueryRequest Y = drfQuery("thread { x := 1; r0 := x; }\n");
  auto Run = [&](bool Resume, const QueryRequest *Q) {
    ServerOptions O;
    O.SocketPath = uniqueSocket("fresh");
    O.JournalPath = Journal;
    O.Resume = Resume;
    ServerFixture Server(O);
    QueryResponse R;
    if (Q) {
      ClientOptions CO;
      CO.SocketPath = Server.Opts.SocketPath;
      R = DaemonClient(CO).call(*Q);
    }
    return R;
  };
  QueryResponse First = Run(false, &X);
  ASSERT_EQ(First.Kind, VerdictKind::Refuted);
  Run(false, nullptr);
  QueryResponse Third = Run(true, &Y);
  EXPECT_EQ(Third.Kind, VerdictKind::Proved);
  EXPECT_EQ(Third.str(), evaluateQuery(Y, TestCeiling).str());
  std::remove(Journal.c_str());
}

} // namespace
