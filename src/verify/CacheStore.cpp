#include "verify/CacheStore.h"

using namespace tracesafe;

namespace {

/// Entry payload: see the layout in CacheStore.h. Loads reject malformed
/// layouts and Unknown verdict kinds (the store never holds incomplete
/// results).
std::string encodeEntry(const std::string &Key,
                        const BehaviourCache::CachedQuery &E) {
  std::string Out;
  Out.reserve(28 + Key.size() + E.Detail.size());
  putStr(Out, Key);
  putU8(Out, static_cast<uint8_t>(E.Kind));
  putU8(Out, static_cast<uint8_t>(E.Reason));
  putU8(Out, 0);
  putU8(Out, 0);
  putU64(Out, E.CostVisits);
  putU64(Out, E.CostBytes);
  putStr(Out, E.Detail);
  return Out;
}

bool decodeEntry(std::string_view Payload, std::string &Key,
                 BehaviourCache::CachedQuery &E) {
  PayloadReader R(Payload);
  uint8_t Kind = 0, Reason = 0, Pad = 0;
  if (!R.str(Key) || !R.u8(Kind) || !R.u8(Reason) || !R.u8(Pad) ||
      !R.u8(Pad) || !R.u64(E.CostVisits) || !R.u64(E.CostBytes) ||
      !R.str(E.Detail) || !R.done())
    return false;
  if (Kind > static_cast<uint8_t>(VerdictKind::Refuted) ||
      Reason > static_cast<uint8_t>(TruncationReason::EngineFault))
    return false;
  E.Kind = static_cast<VerdictKind>(Kind);
  E.Reason = static_cast<TruncationReason>(Reason);
  return true;
}

} // namespace

CacheStoreInfo tracesafe::loadCacheStore(const std::string &Path,
                                         BehaviourCache &Cache) {
  CacheStoreInfo Info;
  RecordLogInfo I =
      RecordLog::load(Path, CacheStoreFormat, [&](std::string_view P) {
        std::string Key;
        BehaviourCache::CachedQuery E;
        if (decodeEntry(P, Key, E)) {
          Cache.insertQuery(Key, std::move(E), /*Notify=*/false);
          ++Info.Loaded;
        }
      });
  Info.HeaderOk = I.HeaderOk;
  Info.TornTail = I.TornTail;
  Info.Blocks = I.Records;
  Info.ValidPrefixBytes = I.ValidPrefixBytes;
  Info.DroppedBytes = I.DroppedBytes;
  Info.Error = I.Error;
  return Info;
}

void CacheStore::append(const std::string &Key,
                        const BehaviourCache::CachedQuery &E) {
  if (E.Kind != VerdictKind::Unknown && Log.append(encodeEntry(Key, E)))
    ++Appended;
}
