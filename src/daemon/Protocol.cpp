#include "daemon/Protocol.h"

#include "support/Failure.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

void putU16(std::string &Out, uint16_t V) {
  Out.push_back(static_cast<char>(V & 0xFF));
  Out.push_back(static_cast<char>((V >> 8) & 0xFF));
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

uint16_t getU16(const unsigned char *P) {
  return static_cast<uint16_t>(P[0] | (P[1] << 8));
}

uint32_t getU32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t getU64(const unsigned char *P) {
  return static_cast<uint64_t>(getU32(P)) |
         (static_cast<uint64_t>(getU32(P + 4)) << 32);
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

std::string daemon::encodeFrame(const Frame &F) {
  std::string Out;
  Out.reserve(FrameHeaderSize + F.Payload.size());
  putU32(Out, FrameMagic);
  Out.push_back(static_cast<char>(F.Version));
  Out.push_back(static_cast<char>(F.Type));
  putU16(Out, F.Flags);
  putU64(Out, F.RequestId);
  putU32(Out, static_cast<uint32_t>(F.Payload.size()));
  putU32(Out, crc32(F.Payload.data(), F.Payload.size()));
  Out += F.Payload;
  return Out;
}

const char *daemon::decodeStatusName(DecodeStatus S) {
  switch (S) {
  case DecodeStatus::Ok:
    return "ok";
  case DecodeStatus::NeedMore:
    return "need-more";
  case DecodeStatus::BadMagic:
    return "bad-magic";
  case DecodeStatus::BadVersion:
    return "bad-version";
  case DecodeStatus::BadFlags:
    return "bad-flags";
  case DecodeStatus::BadLength:
    return "bad-length";
  case DecodeStatus::BadCrc:
    return "bad-crc";
  }
  return "invalid";
}

DecodeStatus daemon::decodeFrame(std::string &Buf, Frame &Out) {
  if (Buf.size() < FrameHeaderSize)
    return DecodeStatus::NeedMore;
  const auto *P = reinterpret_cast<const unsigned char *>(Buf.data());
  if (getU32(P) != FrameMagic)
    return DecodeStatus::BadMagic;
  if (P[4] < MinProtocolVersion || P[4] > ProtocolVersion)
    return DecodeStatus::BadVersion;
  uint16_t Flags = getU16(P + 6);
  // "flags must be 0" is load-bearing for v1 frames: it is what lets v2
  // repurpose the reserved word without an old peer silently misreading
  // it. v2 frames may only set bits this build knows.
  if (P[4] == 1 ? Flags != 0 : (Flags & ~KnownFrameFlags) != 0)
    return DecodeStatus::BadFlags;
  uint32_t Len = getU32(P + 16);
  if (Len > MaxFramePayload)
    return DecodeStatus::BadLength;
  if (Buf.size() < FrameHeaderSize + Len)
    return DecodeStatus::NeedMore;
  uint32_t WantCrc = getU32(P + 20);
  if (crc32(Buf.data() + FrameHeaderSize, Len) != WantCrc)
    return DecodeStatus::BadCrc;
  Out.Version = P[4];
  Out.Type = static_cast<FrameType>(P[5]);
  Out.Flags = Flags;
  Out.RequestId = getU64(P + 8);
  Out.Payload.assign(Buf, FrameHeaderSize, Len);
  Buf.erase(0, FrameHeaderSize + Len);
  return DecodeStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Query messages
//===----------------------------------------------------------------------===//

const char *daemon::queryKindName(QueryKind K) {
  switch (K) {
  case QueryKind::ProgramDrf:
    return "program-drf";
  case QueryKind::Behaviours:
    return "behaviours";
  case QueryKind::DrfGuarantee:
    return "drf-guarantee";
  case QueryKind::ThinAir:
    return "thin-air";
  case QueryKind::RaceLog:
    return "racelog";
  case QueryKind::Campaign:
    return "campaign";
  case QueryKind::Stats:
    return "stats";
  }
  return "invalid";
}

const char *daemon::clientClassName(ClientClass C) {
  switch (C) {
  case ClientClass::Interactive:
    return "interactive";
  case ClientClass::Batch:
    return "batch";
  }
  return "invalid";
}

const char *daemon::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Overloaded:
    return "overloaded";
  case ResponseStatus::BadRequest:
    return "bad-request";
  case ResponseStatus::Error:
    return "error";
  }
  return "invalid";
}

const char *daemon::progressPhaseName(ProgressPhase P) {
  switch (P) {
  case ProgressPhase::Queued:
    return "queued";
  case ProgressPhase::Running:
    return "running";
  case ProgressPhase::Partial:
    return "partial";
  }
  return "invalid";
}

std::string QueryResponse::str() const {
  std::string Out = responseStatusName(Status);
  Out += " ";
  Out += verdictKindName(Kind);
  Out += " ";
  Out += truncationReasonName(Reason);
  if (Degraded)
    Out += " degraded";
  Out += " visited=" + std::to_string(Visited);
  if (!Detail.empty())
    Out += " " + Detail;
  return Out;
}

std::string daemon::encodeHello(const std::string &ClientName) {
  std::string Out;
  putStr(Out, ClientName);
  return Out;
}

bool daemon::decodeHello(const std::string &Payload,
                         std::string &ClientName) {
  PayloadReader R(Payload);
  return R.str(ClientName) && R.done();
}

std::string daemon::encodeWelcome(const std::string &ServerName,
                                  uint64_t NegotiatedVersion) {
  std::string Out;
  putU64(Out, NegotiatedVersion);
  putStr(Out, ServerName);
  return Out;
}

bool daemon::decodeWelcome(const std::string &Payload,
                           std::string &ServerName,
                           uint64_t *NegotiatedVersion) {
  PayloadReader R(Payload);
  uint64_t Version = 0;
  if (!R.u64(Version) || Version < MinProtocolVersion ||
      Version > ProtocolVersion || !R.str(ServerName) || !R.done())
    return false;
  if (NegotiatedVersion)
    *NegotiatedVersion = Version;
  return true;
}

std::string daemon::encodeSubmit(const QueryRequest &Q, uint8_t Version) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Q.Kind));
  putU64(Out, static_cast<uint64_t>(Q.Budget.DeadlineMs));
  putU64(Out, Q.Budget.MaxVisited);
  putU64(Out, Q.Budget.MaxMemoryBytes);
  putStr(Out, Q.Program);
  putStr(Out, Q.Transformed);
  if (Version >= 2) {
    putU8(Out, static_cast<uint8_t>(Q.Class));
    putU8(Out, Q.Priority);
  }
  return Out;
}

bool daemon::decodeSubmit(const std::string &Payload, QueryRequest &Q,
                          uint8_t Version) {
  PayloadReader R(Payload);
  uint8_t Kind = 0;
  uint64_t DeadlineMs = 0;
  if (!R.u8(Kind) || !R.u64(DeadlineMs) || !R.u64(Q.Budget.MaxVisited) ||
      !R.u64(Q.Budget.MaxMemoryBytes) || !R.str(Q.Program) ||
      !R.str(Q.Transformed))
    return false;
  uint8_t Class = 0, Priority = 0;
  if (Version >= 2 && (!R.u8(Class) || !R.u8(Priority)))
    return false;
  if (!R.done())
    return false;
  if (Kind < static_cast<uint8_t>(QueryKind::ProgramDrf) ||
      Kind > static_cast<uint8_t>(QueryKind::Stats))
    return false;
  if (Class > static_cast<uint8_t>(ClientClass::Batch))
    return false;
  Q.Kind = static_cast<QueryKind>(Kind);
  Q.Budget.DeadlineMs = static_cast<int64_t>(DeadlineMs);
  Q.Class = static_cast<ClientClass>(Class);
  Q.Priority = Priority;
  return true;
}

std::string daemon::encodeResponse(const QueryResponse &R) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(R.Status));
  putU8(Out, static_cast<uint8_t>(R.Kind));
  putU8(Out, static_cast<uint8_t>(R.Reason));
  putU8(Out, R.Degraded ? 1 : 0);
  putU64(Out, R.Visited);
  putStr(Out, R.Detail);
  return Out;
}

bool daemon::decodeResponse(const std::string &Payload, QueryResponse &R) {
  PayloadReader Rd(Payload);
  uint8_t Status = 0, Kind = 0, Reason = 0, Degraded = 0;
  if (!Rd.u8(Status) || !Rd.u8(Kind) || !Rd.u8(Reason) ||
      !Rd.u8(Degraded) || !Rd.u64(R.Visited) || !Rd.str(R.Detail) ||
      !Rd.done())
    return false;
  if (Status < static_cast<uint8_t>(ResponseStatus::Ok) ||
      Status > static_cast<uint8_t>(ResponseStatus::Error))
    return false;
  if (Kind > static_cast<uint8_t>(VerdictKind::Unknown) ||
      Reason > static_cast<uint8_t>(TruncationReason::EngineFault))
    return false;
  R.Status = static_cast<ResponseStatus>(Status);
  R.Kind = static_cast<VerdictKind>(Kind);
  R.Reason = static_cast<TruncationReason>(Reason);
  R.Degraded = Degraded != 0;
  return true;
}

//===----------------------------------------------------------------------===//
// Progress streaming
//===----------------------------------------------------------------------===//

std::string daemon::encodeProgress(const ProgressUpdate &U) {
  std::string Out;
  putU64(Out, U.Seq);
  putU8(Out, static_cast<uint8_t>(U.Phase));
  putU64(Out, U.Visited);
  putU64(Out, U.SpentBytes);
  putU64(Out, U.SubIndex);
  putStr(Out, U.Partial);
  return Out;
}

bool daemon::decodeProgress(const std::string &Payload, ProgressUpdate &U) {
  PayloadReader R(Payload);
  uint8_t Phase = 0;
  if (!R.u64(U.Seq) || !R.u8(Phase) || !R.u64(U.Visited) ||
      !R.u64(U.SpentBytes) || !R.u64(U.SubIndex) || !R.str(U.Partial) ||
      !R.done())
    return false;
  if (Phase < static_cast<uint8_t>(ProgressPhase::Queued) ||
      Phase > static_cast<uint8_t>(ProgressPhase::Partial))
    return false;
  U.Phase = static_cast<ProgressPhase>(Phase);
  return true;
}

//===----------------------------------------------------------------------===//
// Campaigns
//===----------------------------------------------------------------------===//

std::string daemon::encodeCampaign(const std::vector<QueryRequest> &Subs) {
  std::string Out;
  putU64(Out, Subs.size());
  for (const QueryRequest &Sub : Subs)
    putStr(Out, encodeSubmit(Sub, ProtocolVersion));
  return Out;
}

bool daemon::decodeCampaign(const std::string &Payload,
                            std::vector<QueryRequest> &Subs) {
  PayloadReader R(Payload);
  uint64_t Count = 0;
  if (!R.u64(Count) || Count == 0 || Count > MaxFramePayload)
    return false;
  Subs.clear();
  for (uint64_t I = 0; I < Count; ++I) {
    std::string Enc;
    QueryRequest Sub;
    if (!R.str(Enc) || !decodeSubmit(Enc, Sub, ProtocolVersion))
      return false;
    // Single-query kinds only: no nested campaigns, no stats probes —
    // the budget/determinism story only composes one level deep.
    if (Sub.Kind == QueryKind::Campaign || Sub.Kind == QueryKind::Stats)
      return false;
    Subs.push_back(std::move(Sub));
  }
  return R.done();
}

QueryRequest daemon::makeCampaign(const std::vector<QueryRequest> &Subs,
                                  const BudgetSpec &Budget,
                                  uint8_t Priority) {
  QueryRequest Q;
  Q.Kind = QueryKind::Campaign;
  Q.Program = encodeCampaign(Subs);
  Q.Budget = Budget;
  Q.Class = ClientClass::Batch;
  Q.Priority = Priority;
  return Q;
}

//===----------------------------------------------------------------------===//
// Blocking fd transport
//===----------------------------------------------------------------------===//

void daemon::writeBytes(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer that died mid-frame must surface as an EPIPE
    // ProtocolError (client retries, server drops the connection) — never
    // as a process-killing SIGPIPE.
    ssize_t N =
        ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("write: ") + std::strerror(errno));
    }
    Off += static_cast<size_t>(N);
  }
}

void daemon::writeFrame(int Fd, const Frame &F) {
  if (faultPoint(FaultSite::ProtoWrite))
    throw ProtocolError("injected fault at proto-write");
  writeBytes(Fd, encodeFrame(F));
}

bool daemon::readFrame(int Fd, std::string &Buf, Frame &Out) {
  for (;;) {
    DecodeStatus S = decodeFrame(Buf, Out);
    if (S == DecodeStatus::Ok)
      return true;
    if (S != DecodeStatus::NeedMore)
      throw ProtocolError(std::string("corrupt frame: ") +
                          decodeStatusName(S));
    if (faultPoint(FaultSite::ProtoRead))
      throw ProtocolError("injected fault at proto-read");
    char Tmp[4096];
    ssize_t N = ::read(Fd, Tmp, sizeof(Tmp));
    if (N == 0) {
      if (Buf.empty())
        return false; // clean EOF at a frame boundary
      throw ProtocolError("eof mid-frame");
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("read: ") + std::strerror(errno));
    }
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

ReadStatus daemon::readFrameTimed(int Fd, std::string &Buf, Frame &Out,
                                  int TimeoutMs) {
  for (;;) {
    DecodeStatus S = decodeFrame(Buf, Out);
    if (S == DecodeStatus::Ok)
      return ReadStatus::Frame;
    if (S != DecodeStatus::NeedMore)
      throw ProtocolError(std::string("corrupt frame: ") +
                          decodeStatusName(S));
    if (faultPoint(FaultSite::ProtoRead))
      throw ProtocolError("injected fault at proto-read");
    pollfd Pfd{Fd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, TimeoutMs);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("poll: ") + std::strerror(errno));
    }
    if (Ready == 0)
      return ReadStatus::Timeout;
    char Tmp[4096];
    ssize_t N = ::read(Fd, Tmp, sizeof(Tmp));
    if (N == 0) {
      if (Buf.empty())
        return ReadStatus::Eof;
      throw ProtocolError("eof mid-frame");
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("read: ") + std::strerror(errno));
    }
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}
