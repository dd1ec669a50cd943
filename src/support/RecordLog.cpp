#include "support/RecordLog.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <unistd.h>

using namespace tracesafe;

//===----------------------------------------------------------------------===//
// CRC32, slice-by-8
//===----------------------------------------------------------------------===//

namespace {

/// Eight derived tables: table 0 is the classic byte-at-a-time table, and
/// T[k][b] extends T[k-1][b] by one zero byte, so eight input bytes fold
/// into eight independent table reads per iteration instead of eight
/// serially dependent ones.
struct Crc32Slice8 {
  uint32_t T[8][256];
  Crc32Slice8() {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (int K = 1; K < 8; ++K)
      for (uint32_t I = 0; I < 256; ++I)
        T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
  }
};

const Crc32Slice8 &crcTables() {
  static Crc32Slice8 Tables;
  return Tables;
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

uint32_t getU32(const char *P) {
  const auto *U = reinterpret_cast<const unsigned char *>(P);
  return static_cast<uint32_t>(U[0]) | static_cast<uint32_t>(U[1]) << 8 |
         static_cast<uint32_t>(U[2]) << 16 | static_cast<uint32_t>(U[3]) << 24;
}

} // namespace

uint32_t tracesafe::crc32(const void *Data, size_t Len) {
  const Crc32Slice8 &Tb = crcTables();
  const auto *P = static_cast<const unsigned char *>(Data);
  uint32_t C = 0xFFFFFFFFu;
  while (Len >= 8) {
    uint32_t Lo, Hi;
    std::memcpy(&Lo, P, 4);
    std::memcpy(&Hi, P + 4, 4);
    Lo ^= C;
    C = Tb.T[7][Lo & 0xFF] ^ Tb.T[6][(Lo >> 8) & 0xFF] ^
        Tb.T[5][(Lo >> 16) & 0xFF] ^ Tb.T[4][Lo >> 24] ^
        Tb.T[3][Hi & 0xFF] ^ Tb.T[2][(Hi >> 8) & 0xFF] ^
        Tb.T[1][(Hi >> 16) & 0xFF] ^ Tb.T[0][Hi >> 24];
    P += 8;
    Len -= 8;
  }
  while (Len--)
    C = Tb.T[0][(C ^ *P++) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Payload primitives
//===----------------------------------------------------------------------===//

void tracesafe::putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

void tracesafe::putU64(std::string &Out, uint64_t V) {
  putU32(Out, static_cast<uint32_t>(V));
  putU32(Out, static_cast<uint32_t>(V >> 32));
}

void tracesafe::putStr(std::string &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out += S;
}

bool PayloadReader::u8(uint8_t &V) {
  if (!Ok || Pos + 1 > Buf.size())
    return Ok = false;
  V = static_cast<uint8_t>(Buf[Pos++]);
  return true;
}

bool PayloadReader::u64(uint64_t &V) {
  if (!Ok || Pos + 8 > Buf.size())
    return Ok = false;
  V = getU32(Buf.data() + Pos) |
      static_cast<uint64_t>(getU32(Buf.data() + Pos + 4)) << 32;
  Pos += 8;
  return true;
}

bool PayloadReader::str(std::string &V) {
  if (!Ok || Pos + 4 > Buf.size())
    return Ok = false;
  uint32_t Len = getU32(Buf.data() + Pos);
  Pos += 4;
  if (Pos + Len > Buf.size())
    return Ok = false;
  V.assign(Buf.substr(Pos, Len));
  Pos += Len;
  return true;
}

//===----------------------------------------------------------------------===//
// Record log
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t RecordMagic = 0x42435354; // "TSCB" little-endian
constexpr size_t HeaderSize = 16;
constexpr size_t RecordHeaderSize = 16;

std::string encodeHeader(RecordFormat F) {
  std::string H;
  putU32(H, F.Magic);
  H.push_back(static_cast<char>(F.Version));
  H.append(HeaderSize - 5, '\0');
  return H;
}

void encodeRecord(std::string &Out, std::string_view Payload) {
  putU32(Out, RecordMagic);
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU32(Out, crc32(Payload.data(), Payload.size()));
  putU32(Out, 0);
  Out += Payload;
}

/// The whole file; a missing or unreadable file reads as empty, which
/// loaders treat as an empty log.
std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  std::string Data(In ? static_cast<size_t>(In.tellg()) : 0, '\0');
  In.seekg(0).read(Data.data(), static_cast<std::streamsize>(Data.size()));
  return Data;
}

bool writeAll(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    ssize_t N = ::write(Fd, Bytes.data(), Bytes.size());
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Walks the valid prefix of \p Data (see the file comment).
RecordLogInfo scan(const std::string &Data, RecordFormat F,
                   const std::function<void(std::string_view)> &Fn) {
  RecordLogInfo I;
  if (Data.empty())
    return I;
  if (Data.size() < HeaderSize || getU32(Data.data()) != F.Magic)
    I.Error = "bad header: not a log of this format";
  else if (static_cast<uint8_t>(Data[4]) != F.Version)
    I.Error = "unsupported log version " +
              std::to_string(static_cast<uint8_t>(Data[4]));
  if (!I.Error.empty()) {
    I.HeaderOk = false;
    I.DroppedBytes = Data.size();
    return I;
  }
  size_t Off = HeaderSize;
  while (Off + RecordHeaderSize <= Data.size()) {
    const char *H = Data.data() + Off;
    uint32_t Len = getU32(H + 4);
    if (getU32(H) != RecordMagic || Len > MaxRecordPayload ||
        Len > Data.size() - Off - RecordHeaderSize)
      break;
    std::string_view Payload(H + RecordHeaderSize, Len);
    if (crc32(Payload.data(), Len) != getU32(H + 8))
      break;
    ++I.Records;
    if (Fn)
      Fn(Payload);
    Off += RecordHeaderSize + Len;
  }
  I.ValidPrefixBytes = Off;
  I.DroppedBytes = Data.size() - Off;
  I.TornTail = I.DroppedBytes != 0;
  return I;
}

} // namespace

RecordLogInfo
RecordLog::load(const std::string &Path, RecordFormat Format,
                const std::function<void(std::string_view)> &Fn) {
  return scan(readFile(Path), Format, Fn);
}

bool RecordLog::open(const std::string &Path, std::string &Err) {
  close();
  RecordLogInfo I = scan(readFile(Path), Format, nullptr);
  if (!I.HeaderOk) {
    Err = Path + ": " + I.Error;
    return false;
  }
  std::lock_guard<std::mutex> Lock(M);
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Err = Path + ": " + std::strerror(errno);
    return false;
  }
  bool Ok = I.ValidPrefixBytes == 0
                ? ::ftruncate(Fd, 0) == 0 && writeAll(Fd, encodeHeader(Format))
                : ::ftruncate(Fd, static_cast<off_t>(I.ValidPrefixBytes)) == 0;
  if (!Ok) {
    Err = Path + ": " + std::strerror(errno);
    ::close(Fd);
    Fd = -1;
    return false;
  }
  Size = I.ValidPrefixBytes ? I.ValidPrefixBytes : HeaderSize;
  return true;
}

bool RecordLog::rewrite(const std::string &Path,
                        const std::vector<std::string> &Payloads,
                        std::string &Err) {
  close();
  std::string Bytes = encodeHeader(Format);
  for (const std::string &P : Payloads)
    if (P.size() <= MaxRecordPayload)
      encodeRecord(Bytes, P);
  const std::string Tmp = Path + ".tmp";
  int TmpFd = ::open(Tmp.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  // A log without records has nothing to lose, so a fresh start skips the
  // fsync: after an OS crash it reads as empty or missing, both empty logs.
  if (TmpFd < 0 || !writeAll(TmpFd, Bytes) ||
      (!Payloads.empty() && ::fsync(TmpFd) != 0) ||
      ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = Path + ": cannot rewrite: " + std::strerror(errno);
    if (TmpFd >= 0) {
      ::close(TmpFd);
      ::unlink(Tmp.c_str());
    }
    return false;
  }
  // The descriptor now names the log itself: keep appending through it.
  std::lock_guard<std::mutex> Lock(M);
  Fd = TmpFd;
  Size = Bytes.size();
  return true;
}

bool RecordLog::append(std::string_view Payload) {
  if (Payload.size() > MaxRecordPayload)
    return false;
  std::string Block;
  Block.reserve(RecordHeaderSize + Payload.size());
  encodeRecord(Block, Payload);
  std::lock_guard<std::mutex> Lock(M);
  if (Fd < 0)
    return false;
  if (!writeAll(Fd, Block)) {
    // Never leave a partial record: appends after it would be invisible.
    (void)!::ftruncate(Fd, static_cast<off_t>(Size));
    return false;
  }
  Size += Block.size();
  return true;
}

void RecordLog::close() {
  std::lock_guard<std::mutex> Lock(M);
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}
