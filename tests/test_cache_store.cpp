//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent warm-start store (TSCS): round-tripping the
/// query-verdict family through a file, the byte layout of stores written
/// before the store moved onto RecordLog, skipping of validly framed
/// malformed entries, and the loader's Notify=false contract (loading
/// never re-triggers the persist sink). Torn tails, flipped bits and
/// foreign headers are covered for every format in test_record_log.
///
//===----------------------------------------------------------------------===//

#include "verify/CacheStore.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace tracesafe;

namespace {

std::string uniqueStore(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("tscs_test_" + std::string(Tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".cache"))
      .string();
}

/// RAII file cleanup.
struct TempFile {
  std::string Path;
  explicit TempFile(const char *Tag) : Path(uniqueStore(Tag)) {}
  ~TempFile() { std::remove(Path.c_str()); }
};

BehaviourCache::CachedQuery entry(VerdictKind K, const std::string &Detail,
                                  uint64_t Visits) {
  BehaviourCache::CachedQuery E;
  E.Kind = K;
  E.Detail = Detail;
  E.CostVisits = Visits;
  E.CostBytes = Visits * 3;
  return E;
}

uint64_t fileSize(const std::string &Path) {
  std::error_code Ec;
  auto N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : static_cast<uint64_t>(N);
}

TEST(CacheStore, RoundTripsEntriesThroughAFile) {
  TempFile F("roundtrip");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "", 100));
    Store.append("key-b", entry(VerdictKind::Refuted, "race on g0", 250));
    Store.append("key-c", entry(VerdictKind::Proved, "all sc", 7));
    EXPECT_EQ(Store.appended(), 3u);
  }

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Loaded, 3u);
  EXPECT_EQ(Info.Blocks, 3u);
  EXPECT_EQ(Info.DroppedBytes, 0u);
  EXPECT_EQ(Info.ValidPrefixBytes, fileSize(F.Path));

  Budget B(BudgetSpec{});
  std::optional<BehaviourCache::CachedQuery> Hit =
      Cache.queryFor("key-b", &B);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Kind, VerdictKind::Refuted);
  EXPECT_EQ(Hit->Detail, "race on g0");
  EXPECT_EQ(Hit->CostVisits, 250u);
  EXPECT_EQ(Hit->CostBytes, 750u);
  EXPECT_EQ(B.visited(), 250u) << "loaded entries replay their cost too";
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_TRUE(Cache.queryFor("key-c", &B).has_value());
}

TEST(CacheStore, MissingFileIsAnEmptyStore) {
  TempFile F("missing");
  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_EQ(Info.Loaded, 0u);
  // open() creates it with a fresh header; a reload is still empty.
  CacheStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
  Store.close();
  Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_EQ(Info.Loaded, 0u);
  EXPECT_FALSE(Info.TornTail);
}

/// A store written by the CacheStore that predates RecordLog: the entries
/// ("k\x01-proved", Proved, 100/300) and ("k-refuted", Refuted, "race on
/// g0\n\ttab", 250/750).
const char ParentStore[] =
    "TSCS\x01\0\0\0\0\0\0\0\0\0\0\0"
    "TSCB\x25\0\0\0\x60\x93\x4b\x4e\0\0\0\0"
    "\x09\0\0\0k\x01-proved\0\0\0\0\x64\0\0\0\0\0\0\0\x2c\x01\0\0"
    "\0\0\0\0\0\0\0\0"
    "TSCB\x34\0\0\0\x2d\x70\x56\x2e\0\0\0\0"
    "\x09\0\0\0k-refuted\x01\0\0\0\xfa\0\0\0\0\0\0\0\xee\x02\0\0"
    "\0\0\0\0\x0f\0\0\0race on g0\n\ttab";

TEST(CacheStore, StoresFromBeforeRecordLogLoadEntryForEntry) {
  const std::string Want(ParentStore, sizeof(ParentStore) - 1);
  ASSERT_EQ(Want.size(), 137u);
  TempFile Old("parent");
  std::ofstream(Old.Path, std::ios::binary) << Want;
  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(Old.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Loaded, 2u);
  Budget B(BudgetSpec{});
  std::optional<BehaviourCache::CachedQuery> A =
      Cache.queryFor(std::string("k\x01-proved"), &B);
  std::optional<BehaviourCache::CachedQuery> R =
      Cache.queryFor("k-refuted", &B);
  ASSERT_TRUE(A && R);
  EXPECT_EQ(A->Kind, VerdictKind::Proved);
  EXPECT_EQ(A->Detail, "");
  EXPECT_EQ(A->CostVisits, 100u);
  EXPECT_EQ(A->CostBytes, 300u);
  EXPECT_EQ(R->Kind, VerdictKind::Refuted);
  EXPECT_EQ(R->Detail, "race on g0\n\ttab");
  EXPECT_EQ(R->CostVisits, 250u);
  EXPECT_EQ(R->CostBytes, 750u);

  // The same entries written today produce the same bytes.
  TempFile New("current");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(New.Path, Err)) << Err;
    Store.append(std::string("k\x01-proved"),
                 entry(VerdictKind::Proved, "", 100));
    Store.append("k-refuted",
                 entry(VerdictKind::Refuted, "race on g0\n\ttab", 250));
  }
  std::ifstream In(New.Path, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(In), {}), Want);
}

TEST(CacheStore, ValidlyFramedGarbagePayloadsAreSkippedNotLoaded) {
  // A block whose CRC verifies but whose payload is malformed (an Unknown
  // verdict kind — the store never contains incomplete results) counts as
  // a block, loads nothing, and does not stop the walk.
  TempFile F("badpayload");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "good", 1));
  }
  {
    // Frame an Unknown-kind entry by hand (append() itself refuses them).
    std::string Payload;
    putStr(Payload, "key-u");
    putU8(Payload, static_cast<uint8_t>(VerdictKind::Unknown));
    putU8(Payload, static_cast<uint8_t>(TruncationReason::StateCap));
    Payload.append(2 + 16, '\0'); // pad, costVisits, costBytes
    putStr(Payload, "");
    RecordLog Log(CacheStoreFormat);
    std::string Err;
    ASSERT_TRUE(Log.open(F.Path, Err)) << Err;
    ASSERT_TRUE(Log.append(Payload));
  }
  {
    CacheStore Store; // another good entry *after* the garbage block
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-b", entry(VerdictKind::Proved, "after", 2));
  }

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Blocks, 3u);
  EXPECT_EQ(Info.Loaded, 2u) << "the Unknown entry must be skipped";
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_FALSE(Cache.queryFor("key-u", &B).has_value());
  EXPECT_TRUE(Cache.queryFor("key-b", &B).has_value());
}

TEST(CacheStore, LoadingNeverRetriggersThePersistSink) {
  TempFile F("sink");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "", 1));
    Store.append("key-b", entry(VerdictKind::Proved, "", 2));
  }
  BehaviourCache Cache;
  unsigned SinkFires = 0;
  Cache.setPersistSink([&](const std::string &,
                           const BehaviourCache::CachedQuery &) {
    ++SinkFires;
  });
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_EQ(Info.Loaded, 2u);
  EXPECT_EQ(SinkFires, 0u)
      << "a load spilling back into its own store would loop forever";
  Cache.insertQuery("key-c", entry(VerdictKind::Proved, "", 3));
  EXPECT_EQ(SinkFires, 1u) << "fresh inserts still spill";
}

} // namespace
