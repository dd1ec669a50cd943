//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-protocol decoder tests (torn, truncated, and garbage frames; CRC
/// detection; pipelined decoding) plus the client backoff schedule and a
/// socketpair-driven retry test under injected transport faults. The
/// decoder is pure, so every corruption case runs without a socket.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/Protocol.h"
#include "daemon/Transport.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

Frame submitFrame(uint64_t Id) {
  Frame F;
  F.Type = FrameType::Submit;
  F.RequestId = Id;
  QueryRequest Q;
  Q.Kind = QueryKind::DrfGuarantee;
  Q.Program = "thread { x := 1; }\n";
  Q.Transformed = "thread { x := 1; x := 1; }\n";
  Q.Budget = BudgetSpec{/*DeadlineMs=*/250, /*MaxVisited=*/1000,
                        /*MaxMemoryBytes=*/1 << 20};
  F.Payload = encodeSubmit(Q);
  return F;
}

TEST(Protocol, FrameRoundTrips) {
  Frame In = submitFrame(42);
  std::string Buf = encodeFrame(In);
  Frame Out;
  ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Type, FrameType::Submit);
  EXPECT_EQ(Out.RequestId, 42u);
  EXPECT_EQ(Out.Payload, In.Payload);
  EXPECT_TRUE(Buf.empty()) << "the decoded frame must be consumed";

  QueryRequest Q;
  ASSERT_TRUE(decodeSubmit(Out.Payload, Q));
  EXPECT_EQ(Q.Kind, QueryKind::DrfGuarantee);
  EXPECT_EQ(Q.Program, "thread { x := 1; }\n");
  EXPECT_EQ(Q.Budget.DeadlineMs, 250);
  EXPECT_EQ(Q.Budget.MaxVisited, 1000u);
}

TEST(Protocol, ResponseRoundTripsAndRenders) {
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  R.Kind = VerdictKind::Refuted;
  R.Reason = TruncationReason::None;
  R.Degraded = true;
  R.Visited = 1234;
  R.Detail = "race";
  std::string Payload = encodeResponse(R);
  QueryResponse Out;
  ASSERT_TRUE(decodeResponse(Payload, Out));
  EXPECT_EQ(Out.str(), R.str());
  EXPECT_EQ(Out.str(), "ok refuted none degraded visited=1234 race");
}

TEST(Protocol, TruncatedFramesAskForMoreAtEveryPrefix) {
  std::string Whole = encodeFrame(submitFrame(7));
  // Every strict prefix is NeedMore — the decoder must never misparse a
  // torn frame, whether the tear is in the header or the payload.
  for (size_t Len = 0; Len < Whole.size(); ++Len) {
    std::string Buf = Whole.substr(0, Len);
    Frame Out;
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::NeedMore) << Len;
    EXPECT_EQ(Buf.size(), Len) << "NeedMore must not consume bytes";
  }
}

TEST(Protocol, PipelinedFramesDecodeOneAtATime) {
  std::string Buf = encodeFrame(submitFrame(1)) +
                    encodeFrame(submitFrame(2)) +
                    encodeFrame(submitFrame(3));
  for (uint64_t Want = 1; Want <= 3; ++Want) {
    Frame Out;
    ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
    EXPECT_EQ(Out.RequestId, Want);
  }
  Frame Out;
  EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::NeedMore);
}

TEST(Protocol, GarbageIsRejectedNotParsed) {
  Frame Out;
  {
    std::string Buf(64, '\xA5'); // random-ish junk, wrong magic
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadMagic);
  }
  {
    std::string Buf = encodeFrame(submitFrame(1));
    Buf[4] = 99; // version byte
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadVersion);
  }
  {
    std::string Buf = encodeFrame(submitFrame(1));
    Buf[16] = '\xFF'; // payload length -> > MaxFramePayload
    Buf[17] = '\xFF';
    Buf[18] = '\xFF';
    Buf[19] = '\x7F';
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadLength);
  }
}

TEST(Protocol, FlagBitsAreVersionChecked) {
  // Corruption matrix for the flags word (header offset 6..7):
  //  - v1 frames must carry zero flags — a v1 peer cannot understand any
  //    flag semantics, so a set bit means a confused or hostile stream;
  //  - v2 frames may set only KnownFrameFlags;
  //  - the v2 streaming bit itself is legal.
  Frame Out;
  {
    Frame F = submitFrame(1);
    F.Version = 1;
    std::string Buf = encodeFrame(F);
    Buf[6] = 0x01; // v1 + any flag bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F = submitFrame(2);
    F.Version = 2;
    std::string Buf = encodeFrame(F);
    Buf[6] = 0x02; // v2 + unknown bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F = submitFrame(3);
    F.Version = 2;
    std::string Buf = encodeFrame(F);
    Buf[7] = 0x40; // v2 + unknown high-byte bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F;
    F.Version = 2;
    F.Type = FrameType::Hello;
    F.Flags = FrameFlagStreaming;
    F.Payload = encodeHello("flags-test");
    std::string Buf = encodeFrame(F);
    ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
    EXPECT_EQ(Out.Version, 2u);
    EXPECT_EQ(Out.Flags, FrameFlagStreaming);
  }
}

TEST(Protocol, SubmitLayoutsAreVersioned) {
  QueryRequest Q;
  Q.Kind = QueryKind::DrfGuarantee;
  Q.Program = "thread { x := 1; }\n";
  Q.Transformed = "thread { skip; }\n";
  Q.Class = ClientClass::Batch;
  Q.Priority = 7;

  // v2 round-trips the scheduling fields.
  QueryRequest V2;
  ASSERT_TRUE(decodeSubmit(encodeSubmit(Q, 2), V2, 2));
  EXPECT_EQ(V2.Class, ClientClass::Batch);
  EXPECT_EQ(V2.Priority, 7u);

  // The v1 layout has no scheduling bytes: a v1 decode defaults them,
  // and the two layouts are not interchangeable (the length-checked
  // decoder rejects the mismatch rather than misparsing).
  QueryRequest V1;
  ASSERT_TRUE(decodeSubmit(encodeSubmit(Q, 1), V1, 1));
  EXPECT_EQ(V1.Class, ClientClass::Interactive);
  EXPECT_EQ(V1.Priority, 0u);
  EXPECT_FALSE(decodeSubmit(encodeSubmit(Q, 2), V1, 1));
  EXPECT_FALSE(decodeSubmit(encodeSubmit(Q, 1), V2, 2));

  // Bad scheduling bytes are rejected, not clamped.
  std::string Bad = encodeSubmit(Q, 2);
  Bad[Bad.size() - 2] = 9; // class byte
  EXPECT_FALSE(decodeSubmit(Bad, V2, 2));
}

TEST(Protocol, WelcomeCarriesTheNegotiatedVersion) {
  std::string Name;
  uint64_t V = 0;
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 1), Name, &V));
  EXPECT_EQ(Name, "tracesafed");
  EXPECT_EQ(V, 1u);
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 2), Name, &V));
  EXPECT_EQ(V, 2u);
  // The version argument is optional for old callers.
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 2), Name));
}

TEST(Protocol, ProgressRoundTripsAndRejectsMalformed) {
  ProgressUpdate U;
  U.Seq = 42;
  U.Phase = ProgressPhase::Partial;
  U.Visited = 1000;
  U.SpentBytes = 4096;
  U.SubIndex = 3;
  QueryResponse Sub;
  Sub.Status = ResponseStatus::Ok;
  Sub.Kind = VerdictKind::Proved;
  U.Partial = encodeResponse(Sub);

  std::string Payload = encodeProgress(U);
  ProgressUpdate Out;
  ASSERT_TRUE(decodeProgress(Payload, Out));
  EXPECT_EQ(Out.Seq, 42u);
  EXPECT_EQ(Out.Phase, ProgressPhase::Partial);
  EXPECT_EQ(Out.Visited, 1000u);
  EXPECT_EQ(Out.SpentBytes, 4096u);
  EXPECT_EQ(Out.SubIndex, 3u);
  QueryResponse SubOut;
  ASSERT_TRUE(decodeResponse(Out.Partial, SubOut));
  EXPECT_EQ(SubOut.str(), Sub.str());

  EXPECT_FALSE(decodeProgress("", Out));
  EXPECT_FALSE(decodeProgress(Payload.substr(0, Payload.size() - 1), Out));
  EXPECT_FALSE(decodeProgress(Payload + "x", Out));
  std::string BadPhase = Payload;
  BadPhase[8] = 99; // phase byte follows the u64 Seq
  EXPECT_FALSE(decodeProgress(BadPhase, Out));
}

TEST(Protocol, CampaignRoundTripsAndRejectsMalformed) {
  std::vector<QueryRequest> Subs(3);
  Subs[0].Kind = QueryKind::ProgramDrf;
  Subs[0].Program = "thread { x := 1; }\n";
  Subs[1].Kind = QueryKind::DrfGuarantee;
  Subs[1].Program = "thread { x := 1; }\n";
  Subs[1].Transformed = "thread { skip; }\n";
  Subs[2].Kind = QueryKind::ThinAir;
  Subs[2].Program = "thread { x := 1; }\n";
  Subs[2].Transformed = "thread { x := 1; }\n";

  QueryRequest Camp = makeCampaign(Subs, BudgetSpec{100, 1000, 1 << 20},
                                   /*Priority=*/3);
  EXPECT_EQ(Camp.Kind, QueryKind::Campaign);
  EXPECT_EQ(Camp.Class, ClientClass::Batch);
  EXPECT_EQ(Camp.Priority, 3u);

  std::vector<QueryRequest> Out;
  ASSERT_TRUE(decodeCampaign(Camp.Program, Out));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].Kind, QueryKind::ProgramDrf);
  EXPECT_EQ(Out[1].Transformed, "thread { skip; }\n");
  EXPECT_EQ(Out[2].Kind, QueryKind::ThinAir);

  EXPECT_FALSE(decodeCampaign("", Out));
  EXPECT_FALSE(decodeCampaign(Camp.Program + "x", Out));
  EXPECT_FALSE(
      decodeCampaign(Camp.Program.substr(0, Camp.Program.size() - 1), Out));
}

TEST(Protocol, BitFlipsAreCaughtByTheCrc) {
  std::string Whole = encodeFrame(submitFrame(9));
  // Flip one bit in every payload byte in turn: all must be BadCrc.
  for (size_t I = FrameHeaderSize; I < Whole.size(); I += 7) {
    std::string Buf = Whole;
    Buf[I] = static_cast<char>(Buf[I] ^ 0x10);
    Frame Out;
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadCrc) << I;
  }
}

TEST(Protocol, MalformedPayloadsFailCleanly) {
  QueryRequest Q;
  EXPECT_FALSE(decodeSubmit("", Q));
  std::string Good = encodeSubmit(Q);
  EXPECT_FALSE(decodeSubmit(Good.substr(0, Good.size() - 1), Q));
  EXPECT_FALSE(decodeSubmit(Good + "x", Q)) << "trailing bytes rejected";
  std::string BadKind = Good;
  BadKind[0] = 99;
  EXPECT_FALSE(decodeSubmit(BadKind, Q));
  QueryResponse R;
  EXPECT_FALSE(decodeResponse("", R));
}

TEST(Backoff, DeterministicBoundedAndJittered) {
  // Same seed, same schedule.
  uint64_t R1 = 77, R2 = 77;
  for (unsigned A = 0; A < 12; ++A)
    EXPECT_EQ(backoffDelayMs(A, 10, 1000, R1),
              backoffDelayMs(A, 10, 1000, R2));

  // Every delay respects the truncated-exponential ceiling.
  uint64_t R = 5;
  for (unsigned A = 0; A < 40; ++A) {
    uint64_t Ceil = std::min<uint64_t>(1000, 10ull << std::min(A, 20u));
    EXPECT_LE(backoffDelayMs(A, 10, 1000, R), Ceil) << A;
  }

  // Jitter actually varies (not a constant schedule).
  uint64_t R3 = 123;
  uint64_t First = backoffDelayMs(6, 10, 1000, R3);
  bool Varied = false;
  for (int I = 0; I < 16 && !Varied; ++I)
    Varied = backoffDelayMs(6, 10, 1000, R3) != First;
  EXPECT_TRUE(Varied);

  // Degenerate parameters do not divide by zero.
  uint64_t R4 = 1;
  EXPECT_EQ(backoffDelayMs(0, 0, 0, R4), 0u);
}

TEST(Transport, ReadFrameSurvivesByteAtATimeDelivery) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Whole = encodeFrame(submitFrame(11));
  std::thread Writer([&] {
    for (char C : Whole) {
      ASSERT_EQ(::write(Fds[0], &C, 1), 1);
    }
    ::shutdown(Fds[0], SHUT_WR);
  });
  std::string Buf;
  Frame Out;
  EXPECT_TRUE(readFrame(Fds[1], Buf, Out));
  EXPECT_EQ(Out.RequestId, 11u);
  EXPECT_FALSE(readFrame(Fds[1], Buf, Out)) << "then a clean EOF";
  Writer.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, MidFrameEofIsAnError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Whole = encodeFrame(submitFrame(12));
  ASSERT_GT(::write(Fds[0], Whole.data(), Whole.size() / 2), 0);
  ::shutdown(Fds[0], SHUT_WR);
  std::string Buf;
  Frame Out;
  EXPECT_THROW(readFrame(Fds[1], Buf, Out), ProtocolError);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, HostPortSpecsParseAndClassify) {
  std::string Host, Err;
  uint16_t Port = 0;
  ASSERT_TRUE(parseHostPort("127.0.0.1:8080", Host, Port, Err));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 8080);
  ASSERT_TRUE(parseHostPort("localhost:0", Host, Port, Err));
  EXPECT_EQ(Port, 0);
  EXPECT_FALSE(parseHostPort("no-port-here", Host, Port, Err));
  EXPECT_FALSE(parseHostPort("host:notanumber", Host, Port, Err));
  EXPECT_FALSE(parseHostPort("host:99999", Host, Port, Err));

  // The spec router: paths (anything with a slash) are unix sockets,
  // host:port strings are TCP.
  EXPECT_TRUE(looksLikeTcpSpec("127.0.0.1:80"));
  EXPECT_TRUE(looksLikeTcpSpec("localhost:1234"));
  EXPECT_FALSE(looksLikeTcpSpec("/tmp/ts.sock"));
  EXPECT_FALSE(looksLikeTcpSpec("./relative:weird/path"));
  EXPECT_FALSE(looksLikeTcpSpec("plainfile"));
}

TEST(Transport, TcpLoopbackDeliversTornAndByteAtATimeFrames) {
  // The framing survives arbitrary TCP segmentation: a frame torn into
  // two MSG_NOSIGNAL sends and another dribbled one byte per send must
  // both reassemble; pipelined frames decode one at a time.
  std::string Err;
  uint16_t Port = 0;
  int ListenFd = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(ListenFd, 0) << Err;
  ConnectOutcome Outcome;
  int ClientFd = connectTcp("127.0.0.1", Port, 2000, Outcome, Err);
  ASSERT_GE(ClientFd, 0) << Err;
  EXPECT_EQ(Outcome, ConnectOutcome::Ok);
  int ServerFd = ::accept(ListenFd, nullptr, nullptr);
  ASSERT_GE(ServerFd, 0);
  setNoDelay(ClientFd); // flush each tiny send immediately

  std::thread Writer([&] {
    std::string A = encodeFrame(submitFrame(21));
    writeBytes(ClientFd, A.substr(0, A.size() / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    writeBytes(ClientFd, A.substr(A.size() / 2));
    std::string B = encodeFrame(submitFrame(22));
    for (char C : B)
      writeBytes(ClientFd, std::string(1, C));
    ::shutdown(ClientFd, SHUT_WR);
  });
  std::string Buf;
  Frame Out;
  EXPECT_TRUE(readFrame(ServerFd, Buf, Out));
  EXPECT_EQ(Out.RequestId, 21u);
  EXPECT_TRUE(readFrame(ServerFd, Buf, Out));
  EXPECT_EQ(Out.RequestId, 22u);
  EXPECT_FALSE(readFrame(ServerFd, Buf, Out)) << "then a clean EOF";
  Writer.join();
  ::close(ClientFd);
  ::close(ServerFd);
  ::close(ListenFd);
}

TEST(Transport, ConnectFailuresAreClassified) {
  // Refused: a freshly released loopback port. The classification is
  // what lets operators (and the client's counters) tell a crashed
  // daemon from a black-holed network.
  std::string Err;
  uint16_t Port = 0;
  int ListenFd = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(ListenFd, 0) << Err;
  ::close(ListenFd);
  ConnectOutcome Outcome;
  int Fd = connectTcp("127.0.0.1", Port, 2000, Outcome, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_EQ(Outcome, ConnectOutcome::Refused);
  EXPECT_STREQ(connectOutcomeName(Outcome), "refused");

  // An unresolvable host is an error, not a hang.
  Fd = connectTcp("definitely.not.a.dotted.quad", 1, 100, Outcome, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_EQ(Outcome, ConnectOutcome::Error);

  // The client library counts refused connects apart from timeouts.
  ClientOptions CO;
  CO.Address = "127.0.0.1:" + std::to_string(Port);
  CO.Name = "refused-test";
  CO.MaxAttempts = 3;
  CO.BackoffCapMs = 5;
  DaemonClient Client(CO);
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = "thread { x := 1; }\n";
  EXPECT_THROW(Client.call(Q), ProtocolError);
  // Connect attempts nest (per-call retries x per-connect retries); what
  // matters is that every one was classified as refused, none as a
  // timeout.
  EXPECT_GE(Client.stats().Refused, 3u);
  EXPECT_EQ(Client.stats().ConnectTimeouts, 0u);
}

TEST(Transport, ListenTcpReportsAddressInUse) {
  std::string Err;
  uint16_t Port = 0;
  int First = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(First, 0) << Err;
  std::string Err2;
  int Second = listenTcp("127.0.0.1", Port, Err2, nullptr);
  EXPECT_LT(Second, 0);
  EXPECT_NE(Err2.find("in use"), std::string::npos) << Err2;
  ::close(First);
}

TEST(Transport, ReadFrameTimedDistinguishesSilenceFromEof) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Buf;
  Frame Out;
  // Silence: Timeout, and the buffer keeps any partial frame.
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 20), ReadStatus::Timeout);
  std::string Whole = encodeFrame(submitFrame(31));
  ASSERT_GT(::write(Fds[0], Whole.data(), 5), 0);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 20), ReadStatus::Timeout);
  ASSERT_GT(::write(Fds[0], Whole.data() + 5, Whole.size() - 5), 0);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 1000), ReadStatus::Frame);
  EXPECT_EQ(Out.RequestId, 31u);
  ::shutdown(Fds[0], SHUT_WR);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 1000), ReadStatus::Eof);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, InjectedFaultsThrowAtTheInstrumentedSites) {
  FaultPlan Plan;
  Plan.arm(FaultSite::ProtoWrite, 1);
  Plan.arm(FaultSite::ProtoRead, 1);
  FaultPlan::Scope Armed(Plan);
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  EXPECT_THROW(writeFrame(Fds[0], submitFrame(1)), ProtocolError);
  // Disarmed after one fire: the next write goes through.
  EXPECT_NO_THROW(writeFrame(Fds[0], submitFrame(2)));
  std::string Buf;
  Frame Out;
  EXPECT_THROW(readFrame(Fds[1], Buf, Out), ProtocolError);
  EXPECT_TRUE(readFrame(Fds[1], Buf, Out));
  EXPECT_EQ(Out.RequestId, 2u);
  EXPECT_EQ(Plan.fired(FaultSite::ProtoWrite), 1u);
  EXPECT_EQ(Plan.fired(FaultSite::ProtoRead), 1u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

} // namespace
