//===----------------------------------------------------------------------===//
///
/// \file
/// One corruption matrix for every RecordLog format: the TSCS cache store,
/// the daemon journal and the fuzz checkpoint. Each file is produced by
/// the format's real writer and read back by its real consumer
/// (loadCacheStore, daemon::loadJournal, a resumed runFuzz), under a torn
/// tail at every byte of the last record, a flipped bit in each record, a
/// bad magic, a garbage header, a zero-length file and every other
/// format's file. The consumer must take exactly the valid prefix, and the
/// store and the journal must refuse a foreign file without touching it.
///
/// The daemon journal also gets an end-to-end case: a bit flip that would
/// turn a journaled Refuted into Proved must make `--resume` recompute
/// the request, never serve the altered verdict.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/Server.h"
#include "support/RecordLog.h"
#include "verify/CacheStore.h"
#include "verify/Fuzz.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

std::string tempPath(const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("record_log_" + Tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1))))
      .string();
}

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
}

/// Byte offset of every record in a well-formed log image.
std::vector<size_t> recordOffsets(const std::string &Bytes) {
  std::vector<size_t> Out;
  for (size_t Off = 16; Off + 16 <= Bytes.size();) {
    Out.push_back(Off);
    uint32_t Len;
    std::memcpy(&Len, Bytes.data() + Off + 4, 4);
    Off += 16 + Len;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// A daemon on a background thread
//===----------------------------------------------------------------------===//

const BudgetSpec Ceiling{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                         /*MaxMemoryBytes=*/128ULL << 20};

QueryRequest drfQuery(const std::string &Src) {
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = Src;
  return Q;
}

const QueryRequest Racy = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
const QueryRequest RaceFree = drfQuery("thread { x := 1; r0 := x; }\n");

/// Runs a daemon on \p Journal, sends \p Qs as client "matrix" from id 1,
/// stops it and returns the answers.
std::vector<QueryResponse> serve(const std::string &Journal, bool Resume,
                                 const std::vector<QueryRequest> &Qs,
                                 ServerStats *Stats = nullptr) {
  ServerOptions O;
  O.SocketPath = tempPath("sock");
  O.JournalPath = Journal;
  O.Resume = Resume;
  O.QuotaCeiling = Ceiling;
  CancelToken Stop;
  O.Stop = &Stop;
  int Rc = -1;
  std::thread T([&] { Rc = runServer(O, Stats); });
  ClientOptions CO;
  CO.SocketPath = O.SocketPath;
  CO.Name = "matrix";
  CO.MaxAttempts = 200; // rides out the listener coming up
  CO.BackoffCapMs = 10;
  std::vector<QueryResponse> Out;
  {
    DaemonClient C(CO);
    for (const QueryRequest &Q : Qs)
      Out.push_back(C.call(Q));
  }
  Stop.request();
  T.join();
  EXPECT_EQ(Rc, 0);
  std::remove(O.SocketPath.c_str());
  return Out;
}

/// runServer's exit code when it must refuse its files at startup (it
/// never gets as far as listening).
int startupRc(const std::string &CacheFile, const std::string &Journal) {
  ServerOptions O;
  O.SocketPath = tempPath("sock");
  O.CacheFile = CacheFile;
  O.JournalPath = Journal;
  O.Resume = true;
  CancelToken Stop;
  Stop.request();
  O.Stop = &Stop;
  int Rc = runServer(O);
  std::remove(O.SocketPath.c_str());
  return Rc;
}

//===----------------------------------------------------------------------===//
// The three formats
//===----------------------------------------------------------------------===//

FuzzOptions checkpointCampaign(const std::string &Path) {
  FuzzOptions O;
  O.Seed = 77;
  O.Programs = 4;
  O.CheckThinAir = false;
  O.Escalation.Initial.DeadlineMs = 0;
  O.Escalation.Ceiling.DeadlineMs = 0;
  O.CheckpointPath = Path;
  return O;
}

struct Consumed {
  bool Refused = false; ///< the consumer would not use the file
  uint64_t Records = 0; ///< records it took
};

/// One persistence format: its real writer and its real consumer.
struct FormatCase {
  const char *Name;
  RecordFormat Format;
  /// Writes a fresh log with several records to the path.
  void (*Write)(const std::string &);
  Consumed (*Consume)(const std::string &);
  /// Whether a foreign file is refused untouched (the fuzz checkpoint
  /// instead discards it and starts the campaign afresh).
  bool RefusesForeign;
};

const FormatCase Formats[] = {
    {"CacheStore", CacheStoreFormat,
     [](const std::string &Path) {
       CacheStore S;
       std::string Err;
       ASSERT_TRUE(S.open(Path, Err)) << Err;
       for (int I = 0; I < 4; ++I) {
         BehaviourCache::CachedQuery E;
         E.Kind = I % 2 ? VerdictKind::Refuted : VerdictKind::Proved;
         E.Detail = "entry " + std::to_string(I);
         E.CostVisits = 10 + I;
         S.append("key-" + std::to_string(I), E);
       }
     },
     [](const std::string &Path) {
       BehaviourCache Cache;
       CacheStoreInfo Info = loadCacheStore(Path, Cache);
       if (!Info.HeaderOk) {
         std::string Before = readBytes(Path), Err;
         EXPECT_FALSE(Info.Error.empty());
         EXPECT_EQ(Info.Loaded, 0u);
         EXPECT_EQ(Info.DroppedBytes, Before.size());
         CacheStore S;
         EXPECT_FALSE(S.open(Path, Err));
         EXPECT_EQ(startupRc(Path, ""), 1) << "--cache-file must refuse";
         EXPECT_EQ(readBytes(Path), Before) << "refusal must not write";
         return Consumed{true, 0};
       }
       EXPECT_EQ(Info.Loaded, Info.Blocks);
       return Consumed{false, Info.Loaded};
     },
     true},
    {"DaemonJournal", JournalFormat,
     [](const std::string &Path) {
       std::vector<QueryResponse> R =
           serve(Path, /*Resume=*/false, {Racy, RaceFree});
       ASSERT_EQ(R[0].Kind, VerdictKind::Refuted);
       ASSERT_EQ(R[1].Kind, VerdictKind::Proved);
     },
     [](const std::string &Path) {
       std::vector<JournalEntry> Entries;
       RecordLogInfo Info = loadJournal(Path, Entries);
       if (!Info.HeaderOk) {
         std::string Before = readBytes(Path);
         EXPECT_EQ(startupRc("", Path), 1) << "--resume must refuse";
         EXPECT_EQ(readBytes(Path), Before) << "refusal must not write";
         return Consumed{true, 0};
       }
       // Whatever was loaded is exactly what was served.
       uint64_t Records = 0;
       for (size_t I = 0; I < Entries.size(); ++I) {
         EXPECT_EQ(Entries[I].Client, "matrix");
         EXPECT_EQ(Entries[I].Id, I + 1);
         if (Entries[I].Done) {
           EXPECT_EQ(Entries[I].Resp.Kind,
                     I == 0 ? VerdictKind::Refuted : VerdictKind::Proved);
         }
         Records += 1 + Entries[I].Done;
       }
       return Consumed{false, Records};
     },
     true},
    {"FuzzCheckpoint", CheckpointFormat,
     [](const std::string &Path) {
       FuzzReport R = runFuzz(checkpointCampaign(Path));
       ASSERT_EQ(R.ProgramsRun, 4u);
     },
     [](const std::string &Path) {
       static const std::string Want =
           runFuzz(checkpointCampaign("")).toJson(false);
       FuzzOptions O = checkpointCampaign(Path);
       O.Resume = true;
       FuzzReport R = runFuzz(O);
       EXPECT_EQ(R.toJson(false), Want)
           << "a resumed campaign must match an uninterrupted one";
       return Consumed{false, R.SkippedFromCheckpoint};
     },
     false},
};

/// The pristine log of each format, written once.
const std::string &pristine(const FormatCase &F) {
  static std::map<std::string, std::string> Cache;
  std::string &Bytes = Cache[F.Name];
  if (Bytes.empty()) {
    std::string Path = tempPath("pristine");
    F.Write(Path);
    Bytes = readBytes(Path);
    std::remove(Path.c_str());
  }
  return Bytes;
}

class RecordLogMatrix : public ::testing::TestWithParam<FormatCase> {
protected:
  void SetUp() override {
    Path = tempPath(GetParam().Name);
    Log = pristine(GetParam());
    Offsets = recordOffsets(Log);
    ASSERT_GE(Offsets.size(), 4u);
  }
  void TearDown() override {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }

  Consumed consume(const std::string &Bytes) {
    writeBytes(Path, Bytes);
    return GetParam().Consume(Path);
  }

  /// A foreign or damaged header: refused, or (fuzz) nothing resumed.
  void expectForeign(const std::string &Bytes) {
    Consumed C = consume(Bytes);
    EXPECT_EQ(C.Refused, GetParam().RefusesForeign);
    EXPECT_EQ(C.Records, 0u);
  }

  std::string Path, Log;
  std::vector<size_t> Offsets;
};

TEST_P(RecordLogMatrix, IntactLogLoadsEveryRecord) {
  Consumed C = consume(Log);
  EXPECT_FALSE(C.Refused);
  EXPECT_EQ(C.Records, Offsets.size());
  RecordLogInfo Info = RecordLog::load(Path, GetParam().Format, nullptr);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.ValidPrefixBytes, Log.size());
}

TEST_P(RecordLogMatrix, TornTailAtEveryByteOfTheLastRecord) {
  for (size_t Cut = Offsets.back(); Cut < Log.size(); ++Cut) {
    Consumed C = consume(Log.substr(0, Cut));
    EXPECT_FALSE(C.Refused) << "cut at " << Cut;
    EXPECT_EQ(C.Records, Offsets.size() - 1) << "cut at " << Cut;
  }
}

TEST_P(RecordLogMatrix, FlippedBitInEachRecordKeepsOnlyThePrefix) {
  for (size_t K = 0; K < Offsets.size(); ++K) {
    size_t End = K + 1 < Offsets.size() ? Offsets[K + 1] : Log.size();
    // One bit in the record header's length word, and one in the payload.
    for (size_t At : {Offsets[K] + 4, (Offsets[K] + 16 + End) / 2}) {
      std::string Bad = Log;
      Bad[At] ^= 0x01;
      Consumed C = consume(Bad);
      EXPECT_FALSE(C.Refused);
      EXPECT_EQ(C.Records, K) << "record " << K << ", byte " << At;
    }
  }
}

TEST_P(RecordLogMatrix, BadMagicIsForeign) {
  std::string Bad = Log;
  Bad[0] ^= 0x20;
  expectForeign(Bad);
}

TEST_P(RecordLogMatrix, GarbageHeaderIsForeign) {
  expectForeign("this is not a record log, whatever else it is\n" +
                Log.substr(16));
  expectForeign("short");
}

TEST_P(RecordLogMatrix, ZeroLengthFileIsAnEmptyLog) {
  Consumed C = consume("");
  EXPECT_FALSE(C.Refused);
  EXPECT_EQ(C.Records, 0u);
}

TEST_P(RecordLogMatrix, AnotherFormatsFileIsForeign) {
  for (const FormatCase &Other : Formats)
    if (std::string(Other.Name) != GetParam().Name) {
      SCOPED_TRACE(Other.Name);
      expectForeign(pristine(Other));
    }
  // A text journal from before RecordLog.
  expectForeign("H\t1\ttracesafed\nA\tclient\t1\t1\t0\t0\t0\tx\t\t0\t0\n");
}

INSTANTIATE_TEST_SUITE_P(Formats, RecordLogMatrix,
                         ::testing::ValuesIn(Formats),
                         [](const ::testing::TestParamInfo<FormatCase> &I) {
                           return std::string(I.param.Name);
                         });

//===----------------------------------------------------------------------===//
// The log primitive
//===----------------------------------------------------------------------===//

constexpr RecordFormat TestFormat{0x54534554 /* "TEST" */, 3};

std::vector<std::string> loadAll(const std::string &Path) {
  std::vector<std::string> Out;
  RecordLog::load(Path, TestFormat,
                  [&](std::string_view P) { Out.emplace_back(P); });
  return Out;
}

TEST(RecordLog, OpenTruncatesATornTailBeforeAppending) {
  std::string Path = tempPath("torn");
  {
    RecordLog L(TestFormat);
    std::string Err;
    ASSERT_TRUE(L.open(Path, Err)) << Err;
    EXPECT_TRUE(L.append("one"));
    EXPECT_TRUE(L.append(std::string("t\0o", 3)));
  }
  std::string Bytes = readBytes(Path);
  writeBytes(Path, Bytes.substr(0, Bytes.size() - 1));
  {
    RecordLog L(TestFormat);
    std::string Err;
    ASSERT_TRUE(L.open(Path, Err)) << Err;
    EXPECT_TRUE(L.append("three"));
  }
  EXPECT_EQ(loadAll(Path), (std::vector<std::string>{"one", "three"}));
  RecordLogInfo Info = RecordLog::load(Path, TestFormat, nullptr);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Records, 2u);
  std::remove(Path.c_str());
}

TEST(RecordLog, VersionMismatchIsRefused) {
  std::string Path = tempPath("version");
  {
    RecordLog L(TestFormat);
    std::string Err;
    ASSERT_TRUE(L.open(Path, Err)) << Err;
  }
  RecordLog Next({TestFormat.Magic, 4});
  std::string Err;
  EXPECT_FALSE(Next.open(Path, Err));
  EXPECT_NE(Err.find("version 3"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

TEST(RecordLog, RewriteReplacesTheLogAndKeepsAppending) {
  std::string Path = tempPath("rewrite");
  writeBytes(Path, "an older file of any kind");
  RecordLog L(TestFormat);
  std::string Err;
  ASSERT_TRUE(L.rewrite(Path, {"a", "b"}, Err)) << Err;
  EXPECT_TRUE(L.append("c"));
  L.close();
  EXPECT_FALSE(L.append("closed"));
  EXPECT_EQ(loadAll(Path), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Daemon journal, end to end
//===----------------------------------------------------------------------===//

TEST(DaemonJournal, FlippedVerdictBitIsRecomputedNotServed) {
  std::string Journal = tempPath("verdict");
  std::vector<QueryResponse> First = serve(Journal, false, {Racy});
  ASSERT_EQ(First[0].Kind, VerdictKind::Refuted);

  // The journal holds A then V. Flip the low bit of the V record's
  // verdict kind: Refuted (1) would read as Proved (0). The kind is the
  // second byte of the encoded response, after the tag, the client name
  // and the id.
  std::string Bytes = readBytes(Journal);
  std::vector<size_t> Offsets = recordOffsets(Bytes);
  ASSERT_EQ(Offsets.size(), 2u);
  size_t KindAt = Offsets[1] + 16 + 1 + 4 + std::string("matrix").size() +
                  8 + 4 + 1;
  ASSERT_EQ(Bytes[KindAt], static_cast<char>(VerdictKind::Refuted));
  Bytes[KindAt] ^= 0x01;
  writeBytes(Journal, Bytes);

  ServerStats Stats;
  std::vector<QueryResponse> Again = serve(Journal, true, {Racy}, &Stats);
  EXPECT_EQ(Again[0].Kind, VerdictKind::Refuted)
      << "a damaged verdict must never be served";
  EXPECT_EQ(Again[0].str(), First[0].str());
  EXPECT_EQ(Stats.Resumed, 1u) << "the request must be recomputed";
  std::remove(Journal.c_str());
}

} // namespace
