#include "racelog/Log.h"

#include "support/RecordLog.h"

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

uint32_t loadU32(const char *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

void storeU32(char *P, uint32_t V) { std::memcpy(P, &V, 4); }

} // namespace

const char *racelog::opName(Op O) {
  switch (O) {
  case Op::Read:
    return "read";
  case Op::Write:
    return "write";
  case Op::Acquire:
    return "acquire";
  case Op::Release:
    return "release";
  case Op::Fork:
    return "fork";
  case Op::Join:
    return "join";
  }
  return "invalid";
}

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

void racelog::encodeEvent(const LogEvent &E, char *Out) {
  Out[0] = static_cast<char>(E.Kind);
  Out[1] = 0; // flags, reserved
  uint16_t Tid = static_cast<uint16_t>(E.Tid);
  std::memcpy(Out + 2, &Tid, 2);
  uint32_t Aux = E.Target;
  std::memcpy(Out + 4, &Aux, 4);
  std::memcpy(Out + 8, &E.Addr, 8);
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

LogWriter::LogWriter(size_t PerBlock)
    : EventsPerBlock(PerBlock ? PerBlock : DefaultEventsPerBlock) {
  Out.resize(FileHeaderSize, 0);
  storeU32(Out.data(), FileMagic);
  Out[4] = static_cast<char>(FormatVersion);
  Pending.reserve(EventsPerBlock * EventRecordSize);
}

void LogWriter::append(const LogEvent &E) {
  char Rec[EventRecordSize];
  encodeEvent(E, Rec);
  Pending.append(Rec, EventRecordSize);
  ++Events;
  if (Pending.size() >= EventsPerBlock * EventRecordSize)
    flushBlock();
}

void LogWriter::flushBlock() {
  if (Pending.empty())
    return;
  char Hdr[BlockHeaderSize] = {};
  storeU32(Hdr, BlockMagic);
  storeU32(Hdr + 4, static_cast<uint32_t>(Pending.size()));
  storeU32(Hdr + 8,
           static_cast<uint32_t>(Pending.size() / EventRecordSize));
  storeU32(Hdr + 12, crc32(Pending.data(), Pending.size()));
  Out.append(Hdr, BlockHeaderSize);
  Out += Pending;
  Pending.clear();
}

std::string LogWriter::finish() {
  flushBlock();
  return std::move(Out);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

BlockCursor::BlockCursor(std::string_view Bytes) : Bytes(Bytes) {
  if (Bytes.size() < FileHeaderSize) {
    Error = Bytes.empty() ? "empty file (no header)"
                          : "short file header";
    return;
  }
  if (loadU32(Bytes.data()) != FileMagic) {
    Error = "bad file magic (not a TSRL log)";
    return;
  }
  if (static_cast<uint8_t>(Bytes[4]) != FormatVersion) {
    Error = "unsupported format version";
    return;
  }
  HeaderOk = true;
  Pos = FileHeaderSize;
}

std::string_view BlockCursor::nextPayload() {
  if (!HeaderOk || Done)
    return {};
  if (Pos == Bytes.size()) {
    Done = true;
    return {};
  }
  auto tear = [&](const char *Why) -> std::string_view {
    Done = Torn = true;
    Error = Why;
    return {};
  };
  if (Bytes.size() - Pos < BlockHeaderSize)
    return tear("torn block header");
  const char *Hdr = Bytes.data() + Pos;
  if (loadU32(Hdr) != BlockMagic)
    return tear("bad block magic");
  uint32_t Len = loadU32(Hdr + 4);
  uint32_t Count = loadU32(Hdr + 8);
  if (Len == 0 || Len > MaxBlockPayload || Len % EventRecordSize != 0 ||
      Count != Len / EventRecordSize)
    return tear("bad block length");
  if (Bytes.size() - Pos - BlockHeaderSize < Len)
    return tear("torn block payload");
  std::string_view Payload = Bytes.substr(Pos + BlockHeaderSize, Len);
  Crc = loadU32(Hdr + 12);
  Pos += BlockHeaderSize + Len;
  ++Blocks;
  return Payload;
}

bool racelog::validBlock(std::string_view Payload, uint32_t Crc) {
  if (crc32(Payload.data(), Payload.size()) != Crc)
    return false;
  LogEvent E;
  for (size_t Off = 0; Off < Payload.size(); Off += EventRecordSize)
    if (!decodeEvent(Payload.data() + Off, E))
      return false;
  return true;
}

bool racelog::decodeLog(std::string_view Bytes, std::vector<LogEvent> &Out,
                        DecodedLog *Info) {
  BlockCursor Cur(Bytes);
  DecodedLog Local;
  DecodedLog &D = Info ? *Info : Local;
  if (!Cur.ok()) {
    D.Error = Cur.error();
    return false;
  }
  for (std::string_view P = Cur.nextPayload(); !P.empty();
       P = Cur.nextPayload()) {
    if (!validBlock(P, Cur.crc())) {
      // A flipped bit, or a record this reader does not understand: drop
      // the whole block and everything after it.
      D.TornTail = true;
      D.DroppedBytes = Bytes.size() - (P.data() - Bytes.data()) +
                       BlockHeaderSize;
      D.Blocks = Cur.blocks() - 1;
      return true;
    }
    for (size_t Off = 0; Off < P.size(); Off += EventRecordSize) {
      LogEvent E;
      decodeEvent(P.data() + Off, E);
      Out.push_back(E);
    }
    D.Blocks = Cur.blocks();
  }
  if (Cur.tornTail()) {
    D.TornTail = true;
    D.DroppedBytes = Cur.droppedBytes();
  }
  return true;
}
