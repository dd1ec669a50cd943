//===----------------------------------------------------------------------===//
///
/// \file
/// The byte codec and the one framed record log behind TraceSafe's
/// persistence formats.
///
///  - crc32: the reflected CRC-32 (polynomial 0xEDB88320, the zlib/PNG
///    one) that every checked format uses: the daemon's wire frames, TSRL
///    event-log blocks and RecordLog records.
///  - putU8/putU64/putStr and PayloadReader: little-endian payload fields
///    with a bounds-checked reader.
///  - RecordLog: a file of CRC-framed records behind a per-format header.
///    The TSCS cache store (verify/CacheStore.h), the daemon journal
///    (daemon/Server.h) and the fuzz checkpoint (verify/Fuzz.h) are
///    RecordLogs; they differ only in their magic and payload codec.
///    TSRL event logs (racelog/Log.h) keep their own block layout, which
///    counts records per block, and share only the CRC.
///
/// Layout (all integers little-endian):
///
///   file header: u32 magic | u8 version | u8[11] zero          (16 bytes)
///   record:      u32 'TSCB' | u32 payloadLen | u32 crc32(payload)
///                | u32 zero | payload
///
/// Loads keep the *valid prefix*: the walk stops at the first record with
/// a bad marker, an overlong length, a short body or a CRC mismatch, and
/// everything from there on is the torn tail. A crash mid-append costs at
/// most the record being written, and a flipped bit costs its record and
/// the ones after it, never a wrong record.
///
/// Durability: append() is one write(2) per record with no fsync, so a
/// record survives the writer being killed (kill -9) as soon as append()
/// returns, but not an OS crash or power loss. rewrite() writes a temp
/// file, fsyncs it when it holds records and renames it over the log, so
/// a compaction leaves either the old log or the whole new one, also
/// across an OS crash.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_RECORDLOG_H
#define TRACESAFE_SUPPORT_RECORDLOG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {

/// CRC-32 (reflected, polynomial 0xEDB88320; crc32("123456789") ==
/// 0xCBF43926), slice-by-8.
uint32_t crc32(const void *Data, size_t Len);

//===----------------------------------------------------------------------===//
// Payload primitives (little-endian u8/u64, u32-length-prefixed strings)
//===----------------------------------------------------------------------===//

void putU8(std::string &Out, uint8_t V);
void putU64(std::string &Out, uint64_t V);
void putStr(std::string &Out, std::string_view S);

/// Bounds-checked cursor over a payload; every getter returns false once
/// the payload is exhausted or malformed (and stays false).
class PayloadReader {
public:
  explicit PayloadReader(std::string_view Buf) : Buf(Buf) {}
  bool u8(uint8_t &V);
  bool u64(uint64_t &V);
  bool str(std::string &V);
  /// True iff every byte was consumed and no getter failed.
  bool done() const { return Ok && Pos == Buf.size(); }

private:
  std::string_view Buf;
  size_t Pos = 0;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// Record log
//===----------------------------------------------------------------------===//

/// What identifies one persistence format in its file header.
struct RecordFormat {
  uint32_t Magic;
  uint8_t Version;
};

/// What a load found. HeaderOk=false means the file exists but is not a
/// log of the requested format; callers must not append to it.
struct RecordLogInfo {
  bool HeaderOk = true;
  bool TornTail = false;         ///< bytes follow the valid prefix
  uint64_t Records = 0;          ///< valid records visited
  uint64_t ValidPrefixBytes = 0; ///< header + valid records (0: no file)
  uint64_t DroppedBytes = 0;     ///< bytes after the valid prefix
  std::string Error;             ///< set when HeaderOk is false
};

/// Upper bound on one record's payload (a daemon journal admission holds
/// a whole wire-frame payload); larger appends are refused, and a larger
/// length field on load ends the valid prefix.
constexpr uint32_t MaxRecordPayload = 32u << 20;

/// The append side of one log file, plus the format's loader. append() is
/// safe to call from several threads.
class RecordLog {
public:
  explicit RecordLog(RecordFormat Format) : Format(Format) {}
  ~RecordLog() { close(); }
  RecordLog(const RecordLog &) = delete;
  RecordLog &operator=(const RecordLog &) = delete;

  /// Calls \p Fn on each payload of the valid prefix of \p Path, in file
  /// order. A missing or empty file is an empty log.
  static RecordLogInfo load(const std::string &Path, RecordFormat Format,
                            const std::function<void(std::string_view)> &Fn);

  /// Opens \p Path for appending: a missing or empty file gets a fresh
  /// header, a torn tail is truncated away (appending after it would hide
  /// every later record from the loader), and a file with a foreign
  /// header is refused untouched. False with \p Err set on refusal or I/O
  /// failure.
  bool open(const std::string &Path, std::string &Err);

  /// Replaces \p Path with a log holding exactly \p Payloads (temp file,
  /// fsync unless there are no records, rename) and leaves it open for
  /// appending.
  bool rewrite(const std::string &Path,
               const std::vector<std::string> &Payloads, std::string &Err);

  /// Appends one record in a single write(2). False when the log is
  /// closed, the payload exceeds MaxRecordPayload or the write fails (a
  /// partial record is then truncated away).
  bool append(std::string_view Payload);

  void close();
  bool isOpen() const { return Fd >= 0; }

private:
  const RecordFormat Format;
  std::mutex M;
  int Fd = -1;
  uint64_t Size = 0; ///< bytes of valid log on disk
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_RECORDLOG_H
