// Differential suite for the indexed window-log diff engine: randomized
// append/trim/truncate/diff histories are executed against both the
// indexed WindowLog and the retained NaiveWindowLog linear scanner, and
// every observable — diff contents, status codes, floor/latest/bytes
// accounting — must agree byte for byte, while the indexed engine may
// never traverse MORE entries than the naive one.
//
// RETRO_INDEX_SEEDS=N widens the randomized sweep (default 128; CI runs
// it at 128 inside the fuzz-smoke job).  See TESTING.md, "Differential
// oracles".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "log/naive_window_log.hpp"
#include "log/window_log.hpp"

namespace retro::log {
namespace {

hlc::Timestamp ts(int64_t l, uint32_t c = 0) { return {l, c}; }

uint64_t indexSeedCount() {
  if (const char* env = std::getenv("RETRO_INDEX_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 128;
}

/// Assert both engines produced the same Result: identical status code,
/// identical DiffMap (keys, values, absent-markers, payload bytes), and
/// indexed work no larger than naive work.
void expectSameDiff(const Result<DiffMap>& indexed, const DiffStats& istats,
                    const Result<DiffMap>& naive, const DiffStats& nstats,
                    const char* what) {
  ASSERT_EQ(indexed.isOk(), naive.isOk()) << what;
  if (!indexed.isOk()) {
    EXPECT_EQ(indexed.status().code(), naive.status().code()) << what;
    return;
  }
  const DiffMap& a = indexed.value();
  const DiffMap& b = naive.value();
  EXPECT_EQ(a.entries(), b.entries()) << what;
  EXPECT_EQ(a.dataBytes(), b.dataBytes()) << what;
  EXPECT_EQ(istats.keysInDiff, nstats.keysInDiff) << what;
  EXPECT_EQ(istats.diffDataBytes, nstats.diffDataBytes) << what;
  EXPECT_LE(istats.entriesTraversed, nstats.entriesTraversed) << what;
}

/// Both engines executed the same mutations; their externally visible
/// log state must be identical.
void expectSameState(const WindowLog& indexed, const NaiveWindowLog& naive) {
  EXPECT_EQ(indexed.entryCount(), naive.entryCount());
  EXPECT_EQ(indexed.accountedBytes(), naive.accountedBytes());
  EXPECT_EQ(indexed.trimmedCount(), naive.trimmedCount());
  EXPECT_EQ(indexed.floor(), naive.floor());
  EXPECT_EQ(indexed.latest(), naive.latest());
  EXPECT_EQ(indexed.isBounded(), naive.isBounded());
}

WindowLogConfig configForSeed(uint64_t seed) {
  WindowLogConfig cfg;
  // Rotate through bound shapes so the sweep hits every trim mechanism,
  // including tight bounds that trim on nearly every append.
  switch (seed % 5) {
    case 0:
      break;  // unbounded
    case 1:
      cfg.maxEntries = 50 + static_cast<size_t>(seed % 97);
      break;
    case 2:
      cfg.maxBytes = 4000 + (seed % 13) * 512;
      break;
    case 3:
      cfg.maxAgeMillis = 40 + static_cast<int64_t>(seed % 31);
      break;
    case 4:
      cfg.maxEntries = 120;
      cfg.maxBytes = 30'000;
      cfg.maxAgeMillis = 200;
      break;
  }
  // Exercise stride boundaries, including degenerate stride 1 and a
  // stride larger than most logs the sweep builds.
  static constexpr size_t kStrides[] = {1, 3, 16, 64, 257};
  cfg.indexStrideEntries = kStrides[(seed / 5) % 5];
  return cfg;
}

TEST(WindowLogIndexDifferential, RandomizedSweepMatchesNaiveScanner) {
  const uint64_t seeds = indexSeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 17);
    const WindowLogConfig cfg = configForSeed(seed);
    WindowLog indexed(cfg);
    NaiveWindowLog naive(cfg);

    const int keySpace = 1 + static_cast<int>(rng.nextBounded(200));
    int64_t clock = 1;
    const int ops = 250 + static_cast<int>(rng.nextBounded(250));
    std::vector<hlc::Timestamp> past;  // appended timestamps to probe
    past.push_back(hlc::kZero);

    for (int op = 0; op < ops; ++op) {
      const double roll = rng.nextDouble();
      if (roll < 0.70) {
        // Append: occasionally repeat the timestamp (same HLC tick).
        if (!rng.nextBool(0.15)) clock += 1 + rng.nextBounded(3);
        const Key key = "k" + std::to_string(rng.nextBounded(keySpace));
        OptValue oldV, newV;
        if (!rng.nextBool(0.3)) oldV = "o" + std::to_string(op);
        if (!rng.nextBool(0.2)) newV = "n" + std::to_string(op);
        indexed.append(key, oldV, newV, ts(clock));
        naive.append(key, oldV, newV, ts(clock));
        past.push_back(ts(clock));
      } else if (roll < 0.80) {
        const hlc::Timestamp t = past[rng.nextBounded(past.size())];
        DiffStats is, ns;
        expectSameDiff(indexed.diffToPast(t, &is), is,
                       naive.diffToPast(t, &ns), ns, "diffToPast");
      } else if (roll < 0.86) {
        hlc::Timestamp a = past[rng.nextBounded(past.size())];
        hlc::Timestamp b = past[rng.nextBounded(past.size())];
        if (b < a) std::swap(a, b);
        DiffStats is, ns;
        expectSameDiff(indexed.diffForward(a, b, &is), is,
                       naive.diffForward(a, b, &ns), ns, "diffForward");
      } else if (roll < 0.92) {
        hlc::Timestamp a = past[rng.nextBounded(past.size())];
        hlc::Timestamp b = past[rng.nextBounded(past.size())];
        if (b < a) std::swap(a, b);
        DiffStats is, ns;
        expectSameDiff(indexed.diffBackward(b, a, &is), is,
                       naive.diffBackward(b, a, &ns), ns, "diffBackward");
      } else if (roll < 0.95) {
        const hlc::Timestamp t = past[rng.nextBounded(past.size())];
        indexed.truncateThrough(t);
        naive.truncateThrough(t);
      } else if (roll < 0.97) {
        if (indexed.isBounded()) {
          indexed.unbound();
          naive.unbound();
        } else {
          indexed.rebound();
          naive.rebound();
        }
      } else if (roll < 0.99) {
        // Config swap mid-history (the grid member does this when
        // partition budgets are rebalanced).
        WindowLogConfig next = configForSeed(seed + op);
        indexed.setConfig(next);
        naive.setConfig(next);
      } else {
        const hlc::Timestamp t = ts(clock);
        indexed.resetForRecovery(t);
        naive.resetForRecovery(t);
      }
      expectSameState(indexed, naive);
      if (op % 50 == 0) {
        ASSERT_TRUE(indexed.validateIndex()) << "op " << op;
      }
    }
    ASSERT_TRUE(indexed.validateIndex());

    // Final dense probe: every recorded time, all three diff flavors.
    for (size_t i = 0; i < past.size(); i += 1 + past.size() / 37) {
      DiffStats is, ns;
      expectSameDiff(indexed.diffToPast(past[i], &is), is,
                     naive.diffToPast(past[i], &ns), ns, "final diffToPast");
      const hlc::Timestamp hi = past[(i * 13) % past.size()];
      if (past[i] <= hi) {
        DiffStats fis, fns;
        expectSameDiff(indexed.diffForward(past[i], hi, &fis), fis,
                       naive.diffForward(past[i], hi, &fns), fns,
                       "final diffForward");
        DiffStats bis, bns;
        expectSameDiff(indexed.diffBackward(hi, past[i], &bis), bis,
                       naive.diffBackward(hi, past[i], &bns), bns,
                       "final diffBackward");
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential divergence at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked scans (RETRO_INDEX_SEEDS): every diffForward/diffBackward also
// runs as a DiffScan advanced at budgets of 1 byte, 7 bytes and
// unbounded, while appends (later than the scan's end), bounded trims,
// truncations, recovery resets and rebalance grafts land between calls.
// A finished scan equals the naive scanner's diff over the log as it is
// then; a refusal matches the naive floor check at that call.  Ranges
// both shorter and longer than the live key count occur, so both the
// entry walk and the key-chain probe resume mid-scan.
// ---------------------------------------------------------------------------

TEST(WindowLogIndexDifferential, ChunkedScansMatchNaiveScanner) {
  static constexpr uint64_t kBudgets[] = {1, 7, UINT64_MAX};
  const uint64_t seeds = indexSeedCount();
  uint64_t chunkedWalks = 0;
  uint64_t chunkedProbes = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 104729 + 5);
    const WindowLogConfig cfg = configForSeed(seed);
    WindowLog indexed(cfg);
    NaiveWindowLog naive(cfg);

    const int keySpace = 1 + static_cast<int>(rng.nextBounded(120));
    int64_t clock = 1;
    int grafted = 0;
    const auto append = [&](int op) {
      const Key key = "k" + std::to_string(rng.nextBounded(keySpace));
      OptValue oldV, newV;
      if (!rng.nextBool(0.3)) oldV = "o" + std::to_string(op);
      if (!rng.nextBool(0.2)) newV = "n" + std::to_string(op);
      indexed.append(key, oldV, newV, ts(clock));
      naive.append(key, oldV, newV, ts(clock));
    };
    for (int op = 0; op < 200 + static_cast<int>(rng.nextBounded(200));
         ++op) {
      if (!rng.nextBool(0.15)) clock += 1 + rng.nextBounded(3);
      append(op);
    }

    for (int probe = 0; probe < 24; ++probe) {
      const uint64_t budget = kBudgets[probe % 3];
      const bool forward = rng.nextBool(0.5);
      const int64_t floorL = indexed.floor().l;
      hlc::Timestamp a = ts(floorL + rng.nextInt(0, clock - floorL));
      hlc::Timestamp b = ts(floorL + rng.nextInt(0, clock - floorL));
      if (b < a) std::swap(a, b);
      SCOPED_TRACE("probe " + std::to_string(probe) + (forward ? " fwd" : " bwd") +
                   " (" + a.toString() + ", " + b.toString() + "] budget " +
                   std::to_string(budget));
      DiffScan scan(forward ? DiffScan::Direction::kForward
                            : DiffScan::Direction::kBackward,
                    a, b);
      uint64_t renumbered = 0;  // grafts/resets while the scan ran
      for (int call = 0;; ++call) {
        const bool mustRefuse = !naive.covers(a);
        DiffStats stats;
        auto visited = indexed.advance(scan, budget, &stats);
        if (mustRefuse) {
          ASSERT_FALSE(visited.isOk()) << "call " << call;
          EXPECT_EQ(visited.status().code(), StatusCode::kOutOfRange);
          break;
        }
        ASSERT_TRUE(visited.isOk()) << visited.status().toString();
        // Every entry carries at least one data byte (its key).
        EXPECT_LE(stats.entriesTraversed, std::max<uint64_t>(budget, 1));
        if (!scan.done()) ++(stats.usedKeyChains ? chunkedProbes : chunkedWalks);
        if (budget == UINT64_MAX) {
          EXPECT_TRUE(scan.done());
        }
        if (scan.done()) {
          EXPECT_EQ(scan.restarts(), renumbered);
          DiffStats ns;
          auto expected = forward ? naive.diffForward(a, b, &ns)
                                  : naive.diffBackward(b, a, &ns);
          ASSERT_TRUE(expected.isOk()) << expected.status().toString();
          EXPECT_EQ(scan.diff().entries(), expected.value().entries());
          EXPECT_EQ(scan.diff().dataBytes(), expected.value().dataBytes());
          break;
        }
        // Mutate between calls.
        const double roll = rng.nextDouble();
        if (roll < 0.55) {
          for (uint64_t n = 1 + rng.nextBounded(4); n > 0; --n) {
            clock += 1 + rng.nextBounded(2);
            append(call);
          }
        } else if (roll < 0.75) {
          // A fresh key's history, timestamps anywhere in the past; its
          // source floor sometimes passes the scan's start.
          std::vector<int64_t> stamps;
          for (uint64_t n = 1 + rng.nextBounded(4); n > 0; --n) {
            stamps.push_back(1 + rng.nextInt(0, clock - 1));
          }
          std::sort(stamps.begin(), stamps.end());
          std::vector<Entry> history;
          OptValue prev;
          for (int64_t l : stamps) {
            OptValue next = "g" + std::to_string(l);
            history.push_back({"g" + std::to_string(grafted), prev, next, ts(l)});
            prev = next;
          }
          ++grafted;
          const hlc::Timestamp sourceFloor =
              rng.nextBool(0.2) ? ts(rng.nextInt(0, clock)) : hlc::kZero;
          indexed.graftHistory(history, sourceFloor);
          naive.graftHistory(history, sourceFloor);
          ++renumbered;
        } else if (roll < 0.95) {
          const hlc::Timestamp t = ts(rng.nextInt(0, clock));
          indexed.truncateThrough(t);
          naive.truncateThrough(t);
        } else {
          indexed.resetForRecovery(ts(clock));
          naive.resetForRecovery(ts(clock));
          ++renumbered;
        }
        expectSameState(indexed, naive);
      }
      ASSERT_TRUE(indexed.validateIndex());
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "chunked-scan divergence at seed " << seed;
    }
  }
  if (seeds >= 16) {  // a sweep this wide resumes both strategies
    EXPECT_GT(chunkedWalks, 0u);
    EXPECT_GT(chunkedProbes, 0u);
  }
}

TEST(WindowLogIndexEdge, GraftRestartsAScanAndTheResultIncludesIt) {
  WindowLog wlog;
  for (int i = 1; i <= 40; ++i) {
    wlog.append("k" + std::to_string(i % 8), Value("a"), Value("b"), ts(i));
  }
  DiffScan scan(DiffScan::Direction::kBackward, ts(10), ts(30));
  ASSERT_TRUE(wlog.advance(scan, 1).isOk());
  ASSERT_FALSE(scan.done());
  wlog.graftHistory({{"fresh", Value("before"), Value("after"), ts(20)}},
                    hlc::kZero);
  while (!scan.done()) ASSERT_TRUE(wlog.advance(scan, 7).isOk());
  EXPECT_EQ(scan.restarts(), 1u);
  EXPECT_EQ(scan.diff().entries().at("fresh"), Value("before"));
  EXPECT_EQ(scan.diff().size(), 9u);  // k0..k7 and the grafted key
}

TEST(WindowLogIndexEdge, KeyChainProbeResumesThroughTrimsAndRehash) {
  // 400 writes over 60 keys: the range is longer than the live key
  // count, so the scan probes key chains, a few keys per 64-byte call.
  // Between calls, two fresh keys (written past the range) grow the key
  // index past a rehash, and trims drop entries below the range.
  WindowLog wlog;
  NaiveWindowLog naive;
  const auto append = [&](const Key& key, int64_t l) {
    wlog.append(key, Value("o" + std::to_string(l)),
                Value("n" + std::to_string(l)), ts(l));
    naive.append(key, Value("o" + std::to_string(l)),
                 Value("n" + std::to_string(l)), ts(l));
  };
  for (int64_t l = 1; l <= 400; ++l) append("k" + std::to_string(l % 60), l);
  const size_t keysAtStart = wlog.liveKeyCount();
  int64_t next = 1000;
  for (const bool forward : {false, true}) {
    SCOPED_TRACE(forward ? "forward" : "backward");
    DiffScan scan(forward ? DiffScan::Direction::kForward
                          : DiffScan::Direction::kBackward,
                  ts(20), ts(390));
    DiffStats stats;
    for (int64_t call = 1; !scan.done(); ++call) {
      ASSERT_LT(call, 1000);
      ASSERT_TRUE(wlog.advance(scan, 64, &stats).isOk());
      for (int fresh = 0; fresh < 2; ++fresh, ++next) {
        append("fresh" + std::to_string(next), next);
      }
      if (call <= 20) {
        wlog.truncateThrough(ts(call));
        naive.truncateThrough(ts(call));
      }
    }
    EXPECT_TRUE(stats.usedKeyChains);
    auto expected = forward ? naive.diffForward(ts(20), ts(390))
                            : naive.diffBackward(ts(390), ts(20));
    ASSERT_TRUE(expected.isOk());
    EXPECT_EQ(scan.diff().entries(), expected.value().entries());
    EXPECT_EQ(scan.diff().size(), 60u);
  }
  // Bucket counts at most double per rehash, so at least one happened.
  EXPECT_GT(wlog.liveKeyCount(), 2 * keysAtStart + 10);
}

TEST(WindowLogIndexEdge, HotKeyChainStaysExactThroughCompactions) {
  // One key takes nearly every write under a 40-entry bound, so its chain
  // is pushed at the back and popped at the front 120k times and its dead
  // prefix is compacted over and over; a cold key writes every 97th
  // append and must keep its own short chain straight throughout.
  WindowLogConfig cfg;
  cfg.maxEntries = 40;
  cfg.indexStrideEntries = 16;
  WindowLog wlog(cfg);
  NaiveWindowLog naive(cfg);
  for (int64_t l = 1; l <= 120'000; ++l) {
    const Key key = l % 97 == 0 ? "cold" : "hot";
    const Value oldV("o" + std::to_string(l));
    const Value newV("n" + std::to_string(l));
    wlog.append(key, oldV, newV, ts(l));
    naive.append(key, oldV, newV, ts(l));
    if (l % 4999 != 0) continue;
    SCOPED_TRACE("append " + std::to_string(l));
    ASSERT_TRUE(wlog.validateIndex());
    expectSameState(wlog, naive);
    static constexpr int64_t kBacks[] = {0, 1, 20, 39};
    for (const int64_t back : kBacks) {
      DiffStats is, ns;
      expectSameDiff(wlog.diffToPast(ts(l - back), &is), is,
                     naive.diffToPast(ts(l - back), &ns), ns, "diffToPast");
      expectSameDiff(wlog.diffForward(ts(l - back), ts(l), &is), is,
                     naive.diffForward(ts(l - back), ts(l), &ns), ns,
                     "diffForward");
      expectSameDiff(wlog.diffBackward(ts(l), ts(l - back), &is), is,
                     naive.diffBackward(ts(l), ts(l - back), &ns), ns,
                     "diffBackward");
    }
    EXPECT_EQ(wlog.historyFor("hot").size() + wlog.historyFor("cold").size(),
              wlog.entryCount());
  }
  EXPECT_EQ(wlog.entryCount(), 40u);
  EXPECT_EQ(wlog.trimmedCount(), 120'000u - 40u);
}

TEST(WindowLogIndexEdge, FloorPassingAScansStartRefuses) {
  WindowLog wlog;
  for (int i = 1; i <= 40; ++i) {
    wlog.append("k" + std::to_string(i), std::nullopt, Value("v"), ts(i));
  }
  DiffScan scan(DiffScan::Direction::kForward, ts(10), ts(30));
  ASSERT_TRUE(wlog.advance(scan, 1).isOk());
  wlog.truncateThrough(ts(10));  // up to the start: still reachable
  ASSERT_TRUE(wlog.advance(scan, 1).isOk());
  wlog.truncateThrough(ts(11));
  auto refused = wlog.advance(scan, 1);
  ASSERT_FALSE(refused.isOk());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Edge cases the linear engine never had to distinguish.
// ---------------------------------------------------------------------------

TEST(WindowLogIndexEdge, DiffForwardEmptyRangeWhenStartEqualsEnd) {
  WindowLog wlog;
  for (int i = 1; i <= 10; ++i) {
    wlog.append("k" + std::to_string(i % 3), std::nullopt, "v", ts(i));
  }
  DiffStats stats;
  auto diff = wlog.diffForward(ts(5), ts(5), &stats);
  ASSERT_TRUE(diff.isOk());
  EXPECT_TRUE(diff.value().empty());
  EXPECT_EQ(stats.entriesTraversed, 0u);
}

TEST(WindowLogIndexEdge, DiffToPastAtExactlyFloor) {
  WindowLog wlog(WindowLogConfig{.maxEntries = 4});
  for (int i = 1; i <= 10; ++i) {
    wlog.append("k" + std::to_string(i), std::nullopt, "v", ts(i));
  }
  // floor() itself is reconstructible; one tick earlier is not.
  ASSERT_EQ(wlog.floor(), ts(6));
  auto atFloor = wlog.diffToPast(wlog.floor());
  ASSERT_TRUE(atFloor.isOk());
  EXPECT_EQ(atFloor.value().size(), 4u);
  auto before = wlog.diffToPast(ts(5));
  ASSERT_FALSE(before.isOk());
  EXPECT_EQ(before.status().code(), StatusCode::kOutOfRange);
}

TEST(WindowLogIndexEdge, TruncateThroughMidIndexStride) {
  WindowLogConfig cfg;
  cfg.indexStrideEntries = 8;
  WindowLog wlog(cfg);
  for (int i = 1; i <= 100; ++i) {
    wlog.append("k" + std::to_string(i % 7), std::nullopt,
                "v" + std::to_string(i), ts(i));
  }
  // Land the cut strictly inside a stride (not on a mark).
  wlog.truncateThrough(ts(21));
  EXPECT_EQ(wlog.entryCount(), 79u);
  EXPECT_EQ(wlog.floor(), ts(21));
  EXPECT_TRUE(wlog.validateIndex());
  auto diff = wlog.diffToPast(ts(21));
  ASSERT_TRUE(diff.isOk());
  EXPECT_EQ(diff.value().size(), 7u);
  // Repeated mid-stride cuts keep the index coherent.
  wlog.truncateThrough(ts(22));
  wlog.truncateThrough(ts(23));
  EXPECT_TRUE(wlog.validateIndex());
}

TEST(WindowLogIndexEdge, ReboundAfterSnapshotGrewLogPastMaxBytes) {
  WindowLogConfig cfg;
  cfg.maxBytes = 2000;
  WindowLog wlog(cfg);
  for (int i = 1; i <= 10; ++i) {
    wlog.append("k" + std::to_string(i), Value("a"), Value("b"), ts(i));
  }
  // Snapshot in progress: the bound is lifted and the log grows far past
  // maxBytes (§III-A).
  wlog.unbound();
  for (int i = 11; i <= 200; ++i) {
    wlog.append("k" + std::to_string(i % 20), Value("a"), Value("b"), ts(i));
  }
  EXPECT_GT(wlog.accountedBytes(), cfg.maxBytes);
  wlog.rebound();
  EXPECT_LE(wlog.accountedBytes(), cfg.maxBytes);
  EXPECT_TRUE(wlog.validateIndex());
  // Post-trim floor is honest: history at the floor works, behind the
  // floor is kOutOfRange.
  auto ok = wlog.diffToPast(wlog.floor());
  ASSERT_TRUE(ok.isOk());
  auto gone = wlog.diffToPast(ts(5));
  ASSERT_FALSE(gone.isOk());
  EXPECT_EQ(gone.status().code(), StatusCode::kOutOfRange);
}

TEST(WindowLogIndexEdge, ResetForRecoveryThenImmediateDiffToPast) {
  WindowLog wlog;
  for (int i = 1; i <= 50; ++i) {
    wlog.append("k" + std::to_string(i % 5), std::nullopt, "v", ts(i));
  }
  wlog.resetForRecovery(ts(50));
  EXPECT_TRUE(wlog.empty());
  EXPECT_TRUE(wlog.validateIndex());
  // Pre-crash history must answer kOutOfRange, not crash on the empty
  // index structures.
  auto gone = wlog.diffToPast(ts(25));
  ASSERT_FALSE(gone.isOk());
  EXPECT_EQ(gone.status().code(), StatusCode::kOutOfRange);
  // The recovery point itself is an empty-but-valid diff, and appends
  // resume cleanly (WAL tail replay does exactly this after restart).
  auto empty = wlog.diffToPast(ts(50));
  ASSERT_TRUE(empty.isOk());
  EXPECT_TRUE(empty.value().empty());
  wlog.append("k1", std::nullopt, "post", ts(51));
  EXPECT_TRUE(wlog.validateIndex());
  auto post = wlog.diffToPast(ts(50));
  ASSERT_TRUE(post.isOk());
  EXPECT_EQ(post.value().size(), 1u);
}

TEST(WindowLogIndexEdge, IndexedStatsExposeStrategy) {
  WindowLog wlog;
  // 1000 entries over 10 keys: the key-chain strategy must win for a
  // deep diff and record its probe counts.
  for (int i = 1; i <= 1000; ++i) {
    wlog.append("k" + std::to_string(i % 10), Value("a"), Value("b"), ts(i));
  }
  DiffStats stats;
  auto diff = wlog.diffToPast(ts(0), &stats);
  ASSERT_TRUE(diff.isOk());
  EXPECT_TRUE(stats.usedKeyChains);
  EXPECT_EQ(stats.entriesTraversed, 10u);
  EXPECT_EQ(stats.keysExamined, 10u);
  EXPECT_GT(stats.indexSeeks, 0u);
  // A shallow diff near the head takes the bounded-scan path.
  DiffStats shallow;
  auto diff2 = wlog.diffToPast(ts(997), &shallow);
  ASSERT_TRUE(diff2.isOk());
  EXPECT_FALSE(shallow.usedKeyChains);
  EXPECT_LE(shallow.entriesTraversed, 3u);
}

}  // namespace
}  // namespace retro::log
