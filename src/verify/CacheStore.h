//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent warm-start store for the BehaviourCache query family (TSCS,
/// "TraceSafe Cache Store").
///
/// A restarted daemon starts cache-cold: every verdict it served before
/// the restart costs a full exploration again. The store spills each
/// fresh query-family insertion (via BehaviourCache::setPersistSink) to
/// an append-only file and loads the file's valid prefix back on
/// start-up, so the warm set survives restarts. Only the query family is
/// persistable: its keys are pure canonical text (see Canonical.h),
/// whereas the engine-level families key on action-word serialisations
/// whose SymbolIds depend on the process's interning history and would be
/// wrong to replay into another process.
///
/// The file is a RecordLog (support/RecordLog.h) with magic 'TSCS',
/// version 1: one CRC-framed record per entry, appended in one write(2).
/// Loads keep the valid prefix, so a torn tail from a crash mid-append
/// costs at most the last entry, never the file, and `open` truncates a
/// torn tail away before appending. Appends survive `kill -9` but are not
/// fsynced. The layout is fixed: stores written by earlier versions load
/// unchanged (test_cache_store pins the bytes).
///
/// Entry payload (little-endian):
///
///   u32 keyLen | key bytes
///   | u8 verdictKind | u8 truncationReason | u16 zero
///   | u64 costVisits | u64 costBytes
///   | u32 detailLen | detail bytes
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_CACHESTORE_H
#define TRACESAFE_VERIFY_CACHESTORE_H

#include "support/RecordLog.h"
#include "verify/BehaviourCache.h"

#include <atomic>
#include <string>

namespace tracesafe {

constexpr RecordFormat CacheStoreFormat{0x53435354 /* "TSCS" */, 1};

/// What a load found. HeaderOk=false means the file exists but is not a
/// TSCS store (wrong magic/version) — the caller should refuse to append
/// to it rather than corrupt whatever it is.
struct CacheStoreInfo {
  bool HeaderOk = true;
  bool TornTail = false;       ///< load stopped at an invalid block
  uint64_t Loaded = 0;         ///< entries inserted into the cache
  uint64_t Blocks = 0;         ///< valid blocks seen (>= Loaded)
  uint64_t ValidPrefixBytes = 0; ///< header + valid blocks
  uint64_t DroppedBytes = 0;   ///< bytes after the valid prefix
  std::string Error;           ///< set when HeaderOk is false
};

/// Loads the valid prefix of the store at \p Path into \p Cache's query
/// family (Notify=false: loading never re-triggers the persist sink, so
/// install the sink after loading or rely on this flag). A missing or
/// empty file loads zero entries successfully. Blocks that frame
/// malformed payloads (bad lengths, an Unknown verdict kind) are counted
/// in Blocks but not Loaded.
CacheStoreInfo loadCacheStore(const std::string &Path, BehaviourCache &Cache);

/// The append side, one per file. append() is thread-safe: the
/// BehaviourCache persist sink calls it from the query workers.
class CacheStore {
public:
  /// Opens \p Path for appending, creating it (with a fresh header) when
  /// missing and truncating any torn tail on an existing store. Returns
  /// false with \p Err set when the file is unusable (not a TSCS store,
  /// unwritable).
  bool open(const std::string &Path, std::string &Err) {
    return Log.open(Path, Err);
  }

  /// Appends one entry as one CRC-framed record. No-op when closed, for
  /// Unknown verdicts, or when the entry exceeds the record bound.
  void append(const std::string &Key, const BehaviourCache::CachedQuery &E);

  void close() { Log.close(); }

  bool isOpen() const { return Log.isOpen(); }
  uint64_t appended() const { return Appended; }

private:
  RecordLog Log{CacheStoreFormat};
  std::atomic<uint64_t> Appended{0};
};

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_CACHESTORE_H
