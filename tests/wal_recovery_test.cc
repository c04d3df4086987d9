// Crash recovery end to end: the DurabilityManager's bootstrap/recover
// cycle, a 200-point seeded crash matrix (the WAL tail truncated at swept
// byte offsets, recovery always landing bit-identically on a
// committed-epoch prefix), bit-flip discrimination (torn tail repaired,
// mid-log damage refused typed), SIGKILLed child processes whose
// acknowledged batches must all survive, checkpoint failpoints, the
// wal.append failpoint surfacing as the batch's typed error, a failed
// auto-insert request leaving no member that replay could not re-create,
// and the epoch-keyed MV/cache state rebuilding consistently across a
// restart.

#include "wal/durability.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "assess/session.h"
#include "common/failpoint.h"
#include "ingest/ingestor.h"
#include "olap/group_by_set.h"
#include "storage/star_query_engine.h"
#include "test_util.h"
#include "wal/checkpoint.h"

namespace assess {
namespace {

namespace fs = std::filesystem;

using ::assess::testutil::BuildMiniSales;
using ::assess::testutil::CellMap;

Result<std::unique_ptr<StarDatabase>> Bootstrap() {
  return std::move(BuildMiniSales().db);
}

/// Deterministic batch `i`: 1-3 rows over existing members only, so replay
/// and reconstruction agree byte for byte.
std::string BatchText(int i) {
  static const char* kProducts[] = {"Apple", "Pear", "Lemon"};
  static const char* kStores[] = {"SmartMart", "PetitPrix"};
  static const char* kDates[] = {"1997-07-01", "1997-07-02"};
  std::string text = "date,product,store,quantity,sales\n";
  const int rows = i % 3 + 1;
  for (int j = 0; j < rows; ++j) {
    char line[96];
    std::snprintf(line, sizeof(line), "%s,%s,%s,%d,%d\n",
                  kDates[(i + j) % 2], kProducts[(i + 2 * j) % 3],
                  kStores[(i + j) % 2], (i % 7) + j + 1, (i % 5) + 2 * j + 1);
    text += line;
  }
  return text;
}

/// One ingest call = one epoch-stamped batch = one WAL record.
Result<IngestStats> IngestBatch(StarDatabase* db, DurabilityManager* mgr,
                                int i) {
  IngestOptions options;
  options.durability = mgr;
  Ingestor ingestor(db, /*cache=*/nullptr, options);
  return ingestor.IngestText("SALES", BatchText(i));
}

/// Everything "bit-identical to a committed-epoch prefix" means for the
/// mini database: row count, exact epoch, the full finest-grain contents
/// of both measures, and an end-to-end query result.
struct Signature {
  int64_t rows = 0;
  uint64_t epoch = 0;
  std::map<std::vector<std::string>, double> quantity;
  std::map<std::vector<std::string>, double> sales;
  std::map<std::vector<std::string>, double> query;

  bool operator==(const Signature& other) const {
    return rows == other.rows && epoch == other.epoch &&
           quantity == other.quantity && sales == other.sales &&
           query == other.query;
  }
};

Signature Sig(StarDatabase* db) {
  const BoundCube* bound = *db->Find("SALES");
  Signature sig;
  sig.rows = bound->facts().NumRows();
  sig.epoch = bound->facts().epoch();

  StarQueryEngine engine(db, /*use_views=*/false, /*threads=*/1);
  auto group_by = GroupBySet::FromLevelNames(bound->schema(),
                                             {"date", "product", "store"});
  EXPECT_TRUE(group_by.ok()) << group_by.status().ToString();
  auto cube = engine.AggregateFactRange(*bound, *group_by, 0, sig.rows);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  sig.quantity = CellMap(*cube, "quantity");
  sig.sales = CellMap(*cube, "sales");

  AssessSession session(db);
  auto result = session.Query(
      "with SALES by product, store assess quantity labels quartiles");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  sig.query = CellMap(result->cube, "quantity");
  return sig;
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  WalRecoveryTest() {
    root_ = fs::temp_directory_path() /
            ("assess_recovery_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(root_);
    data_dir_ = (root_ / "data").string();
  }
  ~WalRecoveryTest() override {
    FailpointRegistry::Instance().DisarmAll();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  Result<std::unique_ptr<DurabilityManager>> Open(
      const std::string& dir, FsyncMode mode = FsyncMode::kAlways) {
    DurabilityOptions options;
    options.wal.fsync_mode = mode;
    options.checkpoint_wal_bytes = 0;  // checkpoints only when tests ask
    return DurabilityManager::Open(dir, options, Bootstrap);
  }

  /// The newest (active) WAL segment under `dir`'s wal/ subdirectory.
  static fs::path LastSegment(const std::string& dir) {
    fs::path last;
    for (const auto& entry : fs::directory_iterator(fs::path(dir) / "wal")) {
      if (last.empty() || entry.path() > last) last = entry.path();
    }
    EXPECT_FALSE(last.empty());
    return last;
  }

  fs::path root_;
  std::string data_dir_;
};

TEST_F(WalRecoveryTest, FreshStartSealsCheckpointOneAndReopensCleanly) {
  Signature initial;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    EXPECT_TRUE((*mgr)->recovery().fresh_start);
    EXPECT_EQ((*mgr)->recovery().checkpoint_seq, 1u);
    initial = Sig((*mgr)->db());
  }
  EXPECT_TRUE(fs::exists(fs::path(data_dir_) / "CURRENT"));
  EXPECT_TRUE(fs::exists(fs::path(data_dir_) / "checkpoint-0000000001"));

  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->recovery().fresh_start);
  EXPECT_EQ((*reopened)->recovery().replayed_records, 0u);
  EXPECT_TRUE(Sig((*reopened)->db()) == initial);
}

TEST_F(WalRecoveryTest, AcknowledgedBatchesSurviveARestart) {
  Signature committed;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    for (int i = 0; i < 5; ++i) {
      auto stats = IngestBatch((*mgr)->db(), mgr->get(), i);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->batches, 1u);
    }
    WalStats wal = (*mgr)->wal_stats();
    EXPECT_EQ(wal.appends, 5u);
    EXPECT_GE(wal.fsyncs, 5u);  // kAlways: one per commit (plus none extra)
    committed = Sig((*mgr)->db());
  }

  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().replayed_records, 5u);
  EXPECT_FALSE((*reopened)->recovery().tail_truncated);
  EXPECT_TRUE(Sig((*reopened)->db()) == committed);
}

TEST_F(WalRecoveryTest, CheckpointTruncatesTheLogAndShortensRecovery) {
  Signature committed;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), i).ok());
    }
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    EXPECT_EQ((*mgr)->checkpoints(), 1u);
    for (int i = 4; i < 6; ++i) {
      ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), i).ok());
    }
    committed = Sig((*mgr)->db());
  }
  // The checkpoint superseded checkpoint 1 and the pre-checkpoint segment.
  EXPECT_FALSE(fs::exists(fs::path(data_dir_) / "checkpoint-0000000001"));
  EXPECT_TRUE(fs::exists(fs::path(data_dir_) / "checkpoint-0000000002"));

  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().checkpoint_seq, 2u);
  // Only the two post-checkpoint batches replay.
  EXPECT_EQ((*reopened)->recovery().replayed_records, 2u);
  EXPECT_TRUE(Sig((*reopened)->db()) == committed);
}

// The crash matrix: commit a known batch sequence, then simulate a kill at
// 200 seeded byte offsets by truncating a copy of the WAL there. Every
// recovery must land bit-identically on a committed-epoch prefix — the
// tables, the epoch and query results of some state that actually existed.
TEST_F(WalRecoveryTest, CrashMatrixRecoversACommittedEpochPrefix) {
  std::map<uint64_t, Signature> reference;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    Signature base = Sig((*mgr)->db());
    reference[base.epoch] = base;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), i).ok());
      Signature sig = Sig((*mgr)->db());
      reference[sig.epoch] = sig;
    }
  }

  const fs::path segment = LastSegment(data_dir_);
  const uint64_t segment_size = fs::file_size(segment);
  ASSERT_GT(segment_size, 16u);

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<uint64_t> offset_dist(0, segment_size);
  int full_recoveries = 0, partial_recoveries = 0;
  for (int point = 0; point < 200; ++point) {
    // Sweep the boundaries deterministically, then seeded interior points.
    const uint64_t cut = point == 0 ? 0
                         : point == 1 ? segment_size
                                      : offset_dist(rng);
    const fs::path scratch = root_ / ("cut_" + std::to_string(point));
    fs::copy(data_dir_, scratch, fs::copy_options::recursive);
    fs::resize_file(scratch / "wal" / segment.filename(), cut);

    auto mgr = Open(scratch.string());
    ASSERT_TRUE(mgr.ok()) << "cut at byte " << cut << ": "
                          << mgr.status().ToString();
    Signature sig = Sig((*mgr)->db());
    auto it = reference.find(sig.epoch);
    ASSERT_NE(it, reference.end())
        << "cut at byte " << cut << " recovered unknown epoch " << sig.epoch;
    EXPECT_TRUE(sig == it->second) << "cut at byte " << cut
                                   << " diverged at epoch " << sig.epoch;
    if (sig.epoch == reference.rbegin()->first) {
      ++full_recoveries;
    } else {
      ++partial_recoveries;
    }
    mgr->reset();
    fs::remove_all(scratch);
  }
  // The sweep genuinely exercised both extremes.
  EXPECT_GT(full_recoveries, 0);
  EXPECT_GT(partial_recoveries, 0);
}

TEST_F(WalRecoveryTest, BitFlipInTheLastRecordIsRepairedAsATornTail) {
  std::map<uint64_t, Signature> reference;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), i).ok());
      Signature sig = Sig((*mgr)->db());
      reference[sig.epoch] = sig;
    }
  }
  const fs::path segment = LastSegment(data_dir_);
  std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-1, std::ios::end);
  f.put('\xFF');
  f.close();

  auto mgr = Open(data_dir_);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_TRUE((*mgr)->recovery().tail_truncated);
  EXPECT_GT((*mgr)->recovery().truncated_bytes, 0u);
  EXPECT_EQ((*mgr)->recovery().replayed_records, 3u);
  Signature sig = Sig((*mgr)->db());
  ASSERT_TRUE(reference.count(sig.epoch));
  EXPECT_TRUE(sig == reference[sig.epoch]);
}

TEST_F(WalRecoveryTest, BitFlipMidLogRefusesRecoveryTyped) {
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), i).ok());
    }
  }
  // Damage the first record's payload; three valid records follow it, so
  // this cannot be a torn tail and recovery must refuse to guess.
  const fs::path segment = LastSegment(data_dir_);
  std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(16 + 8 + 20, std::ios::beg);
  f.put('\xFF');
  f.close();

  auto mgr = Open(data_dir_);
  ASSERT_FALSE(mgr.ok());
  EXPECT_EQ(mgr.status().code(), StatusCode::kCorruptWal);
}

TEST_F(WalRecoveryTest, CorruptedCheckpointColumnRefusesRecoveryTyped) {
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), 0).ok());
  }
  // Same size, different bytes: only the manifest's CRC32C can tell.
  const fs::path column =
      fs::path(data_dir_) / "checkpoint-0000000001" / "SALES.m0.bin";
  ASSERT_TRUE(fs::exists(column));
  std::fstream f(column, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(3, std::ios::beg);
  f.put('\x5A');
  f.close();

  auto mgr = Open(data_dir_);
  ASSERT_FALSE(mgr.ok());
  EXPECT_EQ(mgr.status().code(), StatusCode::kCorruptCheckpoint);
}

// Satellite: a WAL append failure must surface as the batch's typed error,
// abort the commit with no half-published epoch, and release every lock —
// later batches (auto-insert included) proceed normally.
TEST_F(WalRecoveryTest, WalAppendFailureIsTheBatchsTypedError) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto mgr = Open(data_dir_);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  StarDatabase* db = (*mgr)->db();
  ASSERT_TRUE(IngestBatch(db, mgr->get(), 0).ok());
  const Signature before = Sig(db);

  ASSERT_TRUE(
      FailpointRegistry::Instance()
          .ArmFromString("wal.append=error(unavailable,walfull):budget=1")
          .ok());
  auto failed = IngestBatch(db, mgr->get(), 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status().message().find("walfull"), std::string::npos);
  FailpointRegistry::Instance().DisarmAll();

  // Nothing published: same rows, same epoch, same cells.
  EXPECT_TRUE(Sig(db) == before);

  // Locks were released exactly once — an auto-insert batch (which takes
  // the exclusive schema lock) and a plain batch both still commit.
  IngestOptions options;
  options.durability = mgr->get();
  options.auto_insert_members = true;
  Ingestor ingestor(db, nullptr, options);
  auto inserted = ingestor.IngestText(
      "SALES",
      "date,product,type,store,quantity,sales\n"
      "1997-07-02,Kiwi,Fresh Fruit,SmartMart,4,9\n");
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->new_members, 1u);
  EXPECT_EQ(inserted->epoch, before.epoch + 1);
  auto plain = IngestBatch(db, mgr->get(), 2);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->epoch, before.epoch + 2);

  // And the WAL holds exactly the three committed batches, replayable.
  const Signature committed = Sig(db);
  mgr->reset();
  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().replayed_records, 3u);
  EXPECT_TRUE(Sig((*reopened)->db()) == committed);
}

// A request that fails after naming a new member leaves no member behind,
// so no later request can log a row that needs it and the WAL always
// replays.
TEST_F(WalRecoveryTest, MemberOfFailedRequestDoesNotBreakRecovery) {
  auto mgr = Open(data_dir_);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  StarDatabase* db = (*mgr)->db();
  IngestOptions auto_insert;
  auto_insert.durability = mgr->get();
  auto_insert.auto_insert_members = true;
  const std::string kiwi_row =
      "date,product,type,store,quantity,sales\n"
      "1997-07-02,Kiwi,Fresh Fruit,SmartMart,4,9\n";
  auto failed = Ingestor(db, nullptr, auto_insert)
                    .IngestText("SALES", kiwi_row + "oops\n");
  ASSERT_FALSE(failed.ok());

  IngestOptions stable;
  stable.durability = mgr->get();
  auto stable_kiwi = Ingestor(db, nullptr, stable)
                         .IngestText("SALES",
                                     "date,product,store,quantity,sales\n"
                                     "1997-07-02,Kiwi,SmartMart,1,1\n");
  const Signature before_restart = Sig(db);
  mgr->reset();
  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(Sig((*reopened)->db()) == before_restart);
  // The member-stable request could not name what never committed.
  ASSERT_FALSE(stable_kiwi.ok());
  EXPECT_EQ(stable_kiwi.status().code(), StatusCode::kNotFound);

  // A request that commits the member logs it, and it recovers.
  auto_insert.durability = reopened->get();
  auto inserted = Ingestor((*reopened)->db(), nullptr, auto_insert)
                      .IngestText("SALES", kiwi_row);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->new_members, 1u);
  const Signature committed = Sig((*reopened)->db());
  reopened->reset();
  auto again = Open(data_dir_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(Sig((*again)->db()) == committed);
}

TEST_F(WalRecoveryTest, FailedCheckpointRenameKeepsThePreviousOneLive) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto mgr = Open(data_dir_);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), 0).ok());
  const Signature committed = Sig((*mgr)->db());

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmFromString("checkpoint.rename=error(internal):budget=1")
                  .ok());
  ASSERT_FALSE((*mgr)->Checkpoint().ok());
  FailpointRegistry::Instance().DisarmAll();

  // The snapshot attempt failed after the WAL rotated: CURRENT still names
  // checkpoint 1 and the sealed segments still cover the batch.
  auto current = ReadCurrentCheckpoint(data_dir_);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);

  // Ingest keeps working, and a retried checkpoint succeeds.
  ASSERT_TRUE(IngestBatch((*mgr)->db(), mgr->get(), 1).ok());
  ASSERT_TRUE((*mgr)->Checkpoint().ok());
  const Signature final_state = Sig((*mgr)->db());
  mgr->reset();

  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().checkpoint_seq, 2u);
  EXPECT_EQ((*reopened)->recovery().replayed_records, 0u);
  EXPECT_TRUE(Sig((*reopened)->db()) == final_state);
}

// Restart consistency for the epoch-keyed derived state: the recovered
// fact table carries the *exact* pre-crash epoch (not a re-derived one), so
// epoch-stamped cache keys and views line up, and a re-materialized
// view lands on identical contents at the identical epoch.
TEST_F(WalRecoveryTest, EpochKeyedViewStateRebuildsConsistently) {
  Signature committed;
  std::map<std::vector<std::string>, double> view_cells;
  uint64_t view_epoch = 0;
  {
    auto mgr = Open(data_dir_);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    StarDatabase* db = (*mgr)->db();
    StarQueryEngine engine(db);
    ASSERT_TRUE(
        engine.MaterializeView(db, "SALES", {"product", "store"}, "mv_ps")
            .ok());
    for (int i = 0; i < 3; ++i) {
      auto stats = IngestBatch(db, mgr->get(), i);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_GE(stats->mv_incremental_updates, 1u);
    }
    const BoundCube* bound = *db->Find("SALES");
    auto views = bound->views_snapshot();
    ASSERT_EQ(views->size(), 1u);
    // Incremental maintenance kept the view current with the fact epoch.
    EXPECT_EQ((*views)[0].query.epoch, bound->facts().epoch());
    view_cells = CellMap((*views)[0].cube, "quantity");
    view_epoch = (*views)[0].query.epoch;
    committed = Sig(db);
  }

  auto reopened = Open(data_dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  StarDatabase* db = (*reopened)->db();
  EXPECT_TRUE(Sig(db) == committed);

  // Views are in-memory state: re-declare the same view and it must land
  // on identical contents stamped with the identical (restored) epoch.
  StarQueryEngine engine(db);
  ASSERT_TRUE(
      engine.MaterializeView(db, "SALES", {"product", "store"}, "mv_ps")
          .ok());
  const BoundCube* bound = *db->Find("SALES");
  auto views = bound->views_snapshot();
  ASSERT_EQ(views->size(), 1u);
  EXPECT_EQ((*views)[0].query.epoch, view_epoch);
  EXPECT_EQ((*views)[0].query.epoch, bound->facts().epoch());
  EXPECT_EQ(CellMap((*views)[0].cube, "quantity"), view_cells);
}

// The durability promise under a real kill -9: a child process ingests
// batches, fsyncing an acknowledgment line after each committed batch, and
// is SIGKILLed at a seeded random moment. Recovery must contain every
// acknowledged batch, and the recovered state must equal re-ingesting the
// same batch prefix into a fresh database (replay determinism).
TEST_F(WalRecoveryTest, SigkilledProcessKeepsEveryAcknowledgedBatch) {
  std::mt19937_64 rng(1997);
  for (int round = 0; round < 4; ++round) {
    const fs::path dir = root_ / ("kill_" + std::to_string(round));
    const fs::path ack_path = root_ / ("ack_" + std::to_string(round));

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: never returns into gtest. Acknowledge each committed batch
      // only after its durable commit, exactly like a kIngestReply.
      DurabilityOptions options;
      options.wal.fsync_mode = FsyncMode::kAlways;
      options.checkpoint_wal_bytes = 0;
      auto opened = DurabilityManager::Open(dir.string(), options, Bootstrap);
      if (!opened.ok()) ::_exit(3);
      std::unique_ptr<DurabilityManager> mgr = std::move(*opened);
      int ack_fd = ::open(ack_path.c_str(),
                          O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(4);
      for (int i = 0;; ++i) {
        auto stats = IngestBatch(mgr->db(), mgr.get(), i);
        if (!stats.ok()) ::_exit(5);
        char line[64];
        int n = std::snprintf(line, sizeof(line), "%llu\n",
                              static_cast<unsigned long long>(stats->epoch));
        if (::write(ack_fd, line, n) != n) ::_exit(6);
        if (::fsync(ack_fd) != 0) ::_exit(7);
      }
    }

    // Parent: wait for the first acknowledgment, then kill a little later.
    for (int spin = 0; spin < 5000; ++spin) {
      std::error_code ec;
      if (fs::exists(ack_path, ec) && fs::file_size(ack_path, ec) > 0) break;
      ::usleep(1000);
    }
    ::usleep(static_cast<useconds_t>(rng() % 20000));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child exited with " << WEXITSTATUS(wstatus)
        << " instead of being killed";

    uint64_t last_acked = 0;
    {
      std::ifstream ack(ack_path);
      std::string line;
      while (std::getline(ack, line)) {
        if (!line.empty()) last_acked = std::stoull(line);
      }
    }
    ASSERT_GT(last_acked, 0u) << "child never acknowledged a batch";

    auto mgr = Open(dir.string());
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    Signature recovered = Sig((*mgr)->db());
    EXPECT_GE(recovered.epoch, last_acked)
        << "round " << round << ": an acknowledged batch vanished";

    // Replay determinism: the recovered state equals re-ingesting the same
    // prefix into a fresh database.
    testutil::MiniDb fresh = BuildMiniSales();
    const uint64_t base = (*fresh.db->Find("SALES"))->facts().epoch();
    for (uint64_t i = 0; i < recovered.epoch - base; ++i) {
      IngestOptions options;
      Ingestor ingestor(fresh.db.get(), nullptr, options);
      auto stats = ingestor.IngestText("SALES",
                                       BatchText(static_cast<int>(i)));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    EXPECT_TRUE(Sig(fresh.db.get()) == recovered)
        << "round " << round << " diverged from the reference prefix";
  }
}

}  // namespace
}  // namespace assess
