#include "storage/bdb_store.hpp"

#include <iterator>
#include <memory>

#include "common/random.hpp"
#include "sim/sim_context.hpp"

#include <gtest/gtest.h>

namespace retro::store {
namespace {

struct Fixture {
  Fixture() : env(1), ctx(env), disk(ctx, sim::DiskConfig{}) {}
  sim::SimEnv env;
  sim::SimContext ctx;
  sim::SimDisk disk;
};

TEST(BdbStore, PutGetRemove) {
  Fixture f;
  BdbStore db(f.ctx, f.disk);
  db.put("a", "1");
  db.put("b", "2");
  EXPECT_EQ(db.get("a"), Value("1"));
  EXPECT_EQ(db.itemCount(), 2u);
  db.put("a", "3");
  EXPECT_EQ(db.get("a"), Value("3"));
  EXPECT_EQ(db.itemCount(), 2u);
  db.remove("a");
  EXPECT_EQ(db.get("a"), std::nullopt);
  EXPECT_EQ(db.itemCount(), 1u);
  db.remove("missing");  // no-op
}

TEST(BdbStore, LiveBytesTracksData) {
  Fixture f;
  BdbStore db(f.ctx, f.disk);
  db.put("key", std::string(100, 'v'));
  EXPECT_EQ(db.liveDataBytes(), 103u);
  db.put("key", std::string(50, 'v'));
  EXPECT_EQ(db.liveDataBytes(), 53u);
  db.remove("key");
  EXPECT_EQ(db.liveDataBytes(), 0u);
}

TEST(BdbStore, SegmentsRollOver) {
  Fixture f;
  BdbConfig cfg;
  cfg.segmentMaxBytes = 1000;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  for (int i = 0; i < 100; ++i) {
    db.put("k" + std::to_string(i), std::string(50, 'v'));
  }
  // ~100 * (52 + 32) bytes = ~8400 bytes across >= 8 segments.
  EXPECT_GT(db.totalSegmentBytes(), 8000u);
}

TEST(BdbStore, HotBackupCopiesClosedSegments) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  for (int i = 0; i < 50; ++i) {
    db.put("k" + std::to_string(i), std::string(100, 'v'));
  }
  uint64_t copied = 0;
  db.hotBackup([&](uint64_t bytes) { copied = bytes; });
  f.env.run();
  // All records written so far are in closed segments after the flush.
  EXPECT_EQ(copied, db.totalSegmentBytes());
  EXPECT_GT(copied, 0u);
}

TEST(BdbStore, BackupDoesNotBlockWrites) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  db.put("a", "1");
  bool done = false;
  db.hotBackup([&](uint64_t) { done = true; });
  // Writes proceed while the copy is in flight.
  db.put("b", "2");
  EXPECT_EQ(db.get("b"), Value("2"));
  f.env.run();
  EXPECT_TRUE(done);
}

TEST(BdbStore, BackupWaitsForCleaner) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = false;  // manual trigger
  cfg.segmentMaxBytes = 500;
  BdbStore db(f.ctx, f.disk, cfg);
  // Generate dead bytes by overwriting.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      db.put("k" + std::to_string(i), std::string(40, 'v'));
    }
  }
  db.runCleanerNow();
  EXPECT_TRUE(db.cleanerRunning());
  TimeMicros backupDoneAt = -1;
  db.hotBackup([&](uint64_t) { backupDoneAt = f.env.now(); });
  // Find when cleaning finished.
  while (db.cleanerRunning()) {
    ASSERT_TRUE(f.env.step());
  }
  const TimeMicros cleanerDoneAt = f.env.now();
  f.env.run();
  EXPECT_GT(backupDoneAt, cleanerDoneAt);
  EXPECT_EQ(db.cleanerRuns(), 1u);
}

TEST(BdbStore, CleanerWakesUpOnDeadFraction) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = true;
  cfg.cleanerWakeupDeadFraction = 0.3;
  cfg.cleanerCheckPeriodMicros = 1000;
  BdbStore db(f.ctx, f.disk, cfg);
  for (int round = 0; round < 50; ++round) {
    db.put("samekey", std::string(100, 'v'));  // every put shadows the last
  }
  f.env.runUntil(50'000);
  EXPECT_GE(db.cleanerRuns(), 1u);
}

TEST(BdbStore, WriteBufferFlushesAtThreshold) {
  Fixture f;
  BdbConfig cfg;
  cfg.writeBufferFlushBytes = 1000;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  // ~132 accounted bytes per record: the 8th put crosses the threshold.
  for (int i = 0; i < 10; ++i) {
    db.put("k" + std::to_string(i), std::string(100, 'v'));
  }
  f.env.run();
  EXPECT_GT(f.disk.bytesWritten(), 0u);
}

TEST(BdbStore, BackupOfEmptyStore) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  uint64_t copied = 12345;
  db.hotBackup([&](uint64_t bytes) { copied = bytes; });
  f.env.run();
  EXPECT_EQ(copied, 0u);
}

TEST(BdbStore, ConsecutiveBackupsBothComplete) {
  Fixture f;
  BdbConfig cfg;
  cfg.cleanerEnabled = false;
  BdbStore db(f.ctx, f.disk, cfg);
  for (int i = 0; i < 20; ++i) {
    db.put("k" + std::to_string(i), std::string(50, 'v'));
  }
  int completed = 0;
  db.hotBackup([&](uint64_t) { ++completed; });
  db.hotBackup([&](uint64_t) { ++completed; });
  f.env.run();
  EXPECT_EQ(completed, 2);
}

TEST(BdbStore, DataViewMatchesIndex) {
  Fixture f;
  BdbStore db(f.ctx, f.disk);
  db.put("x", "1");
  db.put("y", "2");
  const auto& data = db.data();
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.at("x"), "1");
}

// ---------------------------------------------------------------------------
// Views: each delivers exactly the state at open, each key once, however
// the store changes between reads.
// ---------------------------------------------------------------------------

/// Reads `view` to the end, `budget` bytes per call, running `between`
/// before every call.  A key delivered twice in one pass fails the test;
/// kRestarted discards the pass.
std::unordered_map<Key, Value> drain(BdbStore::View& view, uint64_t budget,
                                     const std::function<void()>& between) {
  std::unordered_map<Key, Value> got;
  for (;;) {
    between();
    const auto read = view.read(budget, [&](const Key& k, const Value& v) {
      EXPECT_TRUE(got.emplace(k, v).second) << "key delivered twice: " << k;
    });
    if (read == BdbStore::ViewRead::kRestarted) {
      got.clear();
    } else if (read != BdbStore::ViewRead::kMore) {
      EXPECT_EQ(read, BdbStore::ViewRead::kDone);
      return got;
    }
  }
}

/// One random overwrite, delete or insert (a fresh key, or a deleted one
/// coming back).
void mutate(BdbStore& db, Rng& rng, int& nextKey) {
  const double draw = rng.nextDouble();
  const auto& live = db.data();
  if (draw < 0.4 && !live.empty()) {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.nextBounded(live.size())));
    db.put(it->first, "new" + std::to_string(rng.next() % 1000));
  } else if (draw < 0.7 && !live.empty()) {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.nextBounded(live.size())));
    db.remove(Key(it->first));
  } else {
    const int id = rng.nextBool(0.3) ? static_cast<int>(rng.nextBounded(
                                           static_cast<uint64_t>(nextKey)))
                                     : nextKey++;
    db.put("k" + std::to_string(id), std::string(rng.nextBounded(40), 'i'));
  }
}

TEST(BdbStoreView, DeliversStateAtOpenUnderOverwritesDeletesAndInserts) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fixture f;
    BdbStore db(f.ctx, f.disk);
    Rng rng(seed);
    int nextKey = 0;
    const int preload = 1 + static_cast<int>(rng.nextBounded(300));
    for (; nextKey < preload; ++nextKey) {
      db.put("k" + std::to_string(nextKey),
             std::string(1 + rng.nextBounded(60), 'p'));
    }
    const auto atOpen = db.data();
    auto view = db.openView();
    const uint64_t budget = 1 + rng.nextBounded(400);
    const auto got = drain(view, budget, [&] {
      for (uint64_t n = rng.nextBounded(6); n > 0; --n) {
        mutate(db, rng, nextKey);
      }
    });
    EXPECT_EQ(got, atOpen);
    // The view keeps answering point reads at open after the last chunk.
    for (int i = 0; i < nextKey; ++i) {
      const Key k = "k" + std::to_string(i);
      const Value* v = view.valueAtOpen(k);
      const auto it = atOpen.find(k);
      if (it == atOpen.end()) {
        EXPECT_EQ(v, nullptr) << k;
      } else {
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, it->second) << k;
      }
    }
  }
}

TEST(BdbStoreView, RehashRestartsTheRead) {
  Fixture f;
  BdbStore db(f.ctx, f.disk);
  for (int i = 0; i < 50; ++i) db.put("k" + std::to_string(i), "v");
  const auto atOpen = db.data();
  auto view = db.openView();
  size_t delivered = 0;
  ASSERT_EQ(view.read(40, [&](const Key&, const Value&) { ++delivered; }),
            BdbStore::ViewRead::kMore);
  EXPECT_GT(delivered, 0u);
  const size_t buckets = db.data().bucket_count();
  int added = 0;
  while (db.data().bucket_count() == buckets) {
    db.put("new" + std::to_string(added++), "x");
  }
  EXPECT_EQ(view.read(40, [](const Key&, const Value&) {}),
            BdbStore::ViewRead::kRestarted);
  EXPECT_EQ(drain(view, 40, [] {}), atOpen);
}

TEST(BdbStoreView, TwoViewsEachSeeTheirOwnInstant) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fixture f;
    BdbStore db(f.ctx, f.disk);
    Rng rng(seed * 977);
    int nextKey = 0;
    for (; nextKey < 120; ++nextKey) {
      db.put("k" + std::to_string(nextKey), std::string(20, 'p'));
    }
    const auto atFirst = db.data();
    auto first = db.openView();
    std::unordered_map<Key, Value> gotFirst;
    ASSERT_EQ(first.read(300, [&](const Key& k, const Value& v) {
      gotFirst.emplace(k, v);
    }), BdbStore::ViewRead::kMore);
    for (int n = 0; n < 40; ++n) mutate(db, rng, nextKey);
    const auto atSecond = db.data();
    auto second = db.openView();
    // Interleave the two reads with more changes.
    std::unordered_map<Key, Value> gotSecond;
    bool firstDone = false, secondDone = false;
    while (!firstDone || !secondDone) {
      for (uint64_t n = rng.nextBounded(4); n > 0; --n) {
        mutate(db, rng, nextKey);
      }
      const auto pump = [&](BdbStore::View& v, auto& got, bool& done) {
        if (done) return;
        const auto read = v.read(200, [&](const Key& k, const Value& val) {
          EXPECT_TRUE(got.emplace(k, val).second) << k;
        });
        if (read == BdbStore::ViewRead::kRestarted) got.clear();
        done = read == BdbStore::ViewRead::kDone;
      };
      pump(first, gotFirst, firstDone);
      pump(second, gotSecond, secondDone);
    }
    EXPECT_EQ(gotFirst, atFirst);
    EXPECT_EQ(gotSecond, atSecond);
  }
}

TEST(BdbStoreView, ClosesWithItsHandleOrItsStore) {
  Fixture f;
  auto db = std::make_unique<BdbStore>(f.ctx, f.disk);
  db->put("a", "1");
  {
    auto dropped = db->openView();
    auto moved = std::move(dropped);
    EXPECT_FALSE(dropped.isOpen());
    EXPECT_TRUE(moved.isOpen());
  }
  db->put("a", "2");  // no view left to save into
  auto view = db->openView();
  db.reset();
  EXPECT_FALSE(view.isOpen());
  EXPECT_EQ(view.read(1 << 20, [](const Key&, const Value&) {}),
            BdbStore::ViewRead::kClosed);
  EXPECT_EQ(view.valueAtOpen("a"), nullptr);
}

}  // namespace
}  // namespace retro::store
