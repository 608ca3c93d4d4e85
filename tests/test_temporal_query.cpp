// Differential suite for the streaming temporal query engine: every
// query evaluated by replaying per-key diffs between adjacent cuts must
// return BIT-IDENTICAL per-step results to a naive evaluation that fully
// materializes the global state at every grid point via the linear-scan
// log::NaiveWindowLog oracle — across randomized histories, intervals,
// steps, predicates, both scan directions, and cluster runs that span
// crash/restart recovery and repaired bit-rot.
//
// RETRO_QUERY_SEEDS=N widens the randomized sweep (default 128; CI runs
// it at 128 inside the fuzz-smoke job).  See TESTING.md, "Differential
// oracles".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "core/temporal_query.hpp"
#include "kvstore/cluster.hpp"
#include "log/naive_window_log.hpp"
#include "log/window_log.hpp"
#include "sim/sim_context.hpp"
#include "storage/bdb_store.hpp"
#include "workload/driver.hpp"

namespace retro::core {
namespace {

hlc::Timestamp ts(int64_t l, uint32_t c = 0) { return {l, c}; }

uint64_t querySeedCount() {
  if (const char* env = std::getenv("RETRO_QUERY_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 128;
}

/// Naive oracle: evaluate the query at every grid point of `spec` by
/// rolling a COPY of the current state back with one NaiveWindowLog
/// diffToPast per point — a full materialization per step, the exact
/// thing the streaming engine exists to avoid.  Status failures (floor,
/// inverted interval) are reported the same way as the engine's.
Result<std::vector<std::pair<hlc::Timestamp, QueryResult>>> naiveSeries(
    const SnapshotQuery& query, const TemporalSpec& spec,
    const std::unordered_map<Key, Value>& currentState,
    const log::NaiveWindowLog& oracle) {
  if (spec.to < spec.from || spec.stepMillis <= 0) {
    return Status(StatusCode::kInvalidArgument, "bad interval");
  }
  if (!oracle.covers(spec.from)) {
    return Status(StatusCode::kOutOfRange, "before retained floor");
  }
  std::vector<std::pair<hlc::Timestamp, QueryResult>> out;
  for (const hlc::Timestamp& t : temporalGrid(spec)) {
    std::unordered_map<Key, Value> state = currentState;
    auto diff = oracle.diffToPast(t);
    if (!diff.isOk()) return diff.status();
    diff.value().applyTo(state);
    out.emplace_back(t, query.execute(state));
  }
  return out;
}

void expectSameSeries(
    const std::vector<std::pair<hlc::Timestamp, QueryResult>>& streaming,
    const std::vector<std::pair<hlc::Timestamp, QueryResult>>& naive,
    const char* what) {
  ASSERT_EQ(streaming.size(), naive.size()) << what;
  for (size_t i = 0; i < streaming.size(); ++i) {
    EXPECT_EQ(streaming[i].first, naive[i].first) << what << " step " << i;
    // QueryResult operator== is exact (both sides finalize from integer
    // partials), so this asserts bit-identical aggregates.
    EXPECT_EQ(streaming[i].second, naive[i].second)
        << what << " step " << i << " at " << streaming[i].first.toString()
        << ": streaming (" << streaming[i].second.matched << ", "
        << streaming[i].second.value << ", " << streaming[i].second.hasValue
        << ") vs naive (" << naive[i].second.matched << ", "
        << naive[i].second.value << ", " << naive[i].second.hasValue << ")";
  }
}

log::WindowLogConfig logConfigForSeed(uint64_t seed) {
  log::WindowLogConfig cfg;
  switch (seed % 4) {
    case 0:
      break;  // unbounded
    case 1:
      cfg.maxEntries = 120 + static_cast<size_t>(seed % 97);
      break;
    case 2:
      cfg.maxBytes = 6000 + (seed % 13) * 512;
      break;
    case 3:
      cfg.maxAgeMillis = 60 + static_cast<int64_t>(seed % 41);
      break;
  }
  static constexpr size_t kStrides[] = {1, 4, 16, 64};
  cfg.indexStrideEntries = kStrides[(seed / 4) % 4];
  return cfg;
}

/// Pool of query shapes the sweep rotates through; numeric slots are
/// filled with seed-derived values.
std::string queryTextFor(Rng& rng) {
  switch (rng.nextBounded(7)) {
    case 0: return "COUNT";
    case 1: return "SUM WHERE key PREFIX 'k'";
    case 2: return "AVG WHERE value >= " + std::to_string(rng.nextInt(-30, 10));
    case 3: return "MIN WHERE key PREFIX 'k" +
                   std::to_string(rng.nextBounded(3)) + "'";
    case 4: return "MAX WHERE value < " + std::to_string(rng.nextInt(0, 40));
    case 5: return "COUNT WHERE value < 0";
    default:
      return "SUM WHERE key PREFIX 'k' AND value != " +
             std::to_string(rng.nextInt(-5, 5));
  }
}

// ---------------------------------------------------------------------------
// Seeded single-log differential sweep (RETRO_QUERY_SEEDS, default 128).
// ---------------------------------------------------------------------------

TEST(TemporalQueryDifferential, RandomizedSweepMatchesNaiveMaterialization) {
  const uint64_t seeds = querySeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 6151 + 7);
    const log::WindowLogConfig cfg = logConfigForSeed(seed);
    log::WindowLog indexed(cfg);
    log::NaiveWindowLog naive(cfg);

    // Shadow of the live store: appends carry the true oldValue so any
    // cut through the history materializes consistently.
    std::unordered_map<Key, Value> live;
    const int keySpace = 2 + static_cast<int>(rng.nextBounded(40));
    int64_t clock = 1;
    const int ops = 200 + static_cast<int>(rng.nextBounded(200));
    for (int op = 0; op < ops; ++op) {
      if (rng.nextBool(0.04)) {
        // Retention boundary moves mid-history (compaction).
        const hlc::Timestamp cut = ts(1 + rng.nextBounded(clock));
        indexed.truncateThrough(cut);
        naive.truncateThrough(cut);
        continue;
      }
      if (!rng.nextBool(0.2)) clock += 1 + rng.nextBounded(4);
      const Key key = "k" + std::to_string(rng.nextBounded(keySpace));
      const auto it = live.find(key);
      const OptValue oldV =
          it == live.end() ? OptValue{} : OptValue{it->second};
      OptValue newV;
      if (!rng.nextBool(0.25)) {
        newV = rng.nextBool(0.15)
                   ? Value("txt" + std::to_string(op))
                   : Value(std::to_string(rng.nextInt(-50, 50)));
      }
      indexed.append(key, oldV, newV, ts(clock));
      naive.append(key, oldV, newV, ts(clock));
      if (newV) {
        live[key] = *newV;
      } else {
        live.erase(key);
      }
    }

    // Probe the history with a handful of random temporal queries.
    for (int probe = 0; probe < 6; ++probe) {
      const int64_t floorL = indexed.floor().l;
      const int64_t latestL = indexed.latest().l;
      // Mostly inside the window; sometimes straddle or precede the
      // floor so refusal parity is exercised too.
      const int64_t span = std::max<int64_t>(latestL - floorL, 1);
      int64_t t1 = floorL + rng.nextInt(0, span);
      if (rng.nextBool(0.15)) t1 = floorL - 1 - rng.nextInt(0, 5);
      const int64_t t2 = t1 + rng.nextInt(0, span + 10);
      const int64_t step = 1 + rng.nextInt(0, 12);

      std::string text = queryTextFor(rng) + " OVER [" +
                         std::to_string(t1) + ", " + std::to_string(t2) +
                         "] STEP " + std::to_string(step);
      const bool rolling = rng.nextBool(0.5);
      if (rolling) text += " ROLLING";
      if (rng.nextBool(0.4)) {
        text += " WHEN > " + std::to_string(rng.nextInt(-3, 6)) + " EVER";
      }
      SCOPED_TRACE("query: " + text);
      auto parsed = SnapshotQuery::parse(text);
      ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
      const SnapshotQuery& query = parsed.value();
      const TemporalSpec& spec = *query.temporal();

      ReplayStats stats;
      auto streaming = evalOverLog(query, live, indexed, &stats);
      auto oracle = naiveSeries(query, spec, live, naive);
      ASSERT_EQ(streaming.isOk(), oracle.isOk())
          << (streaming.isOk() ? oracle.status().toString()
                               : streaming.status().toString());
      if (!streaming.isOk()) {
        EXPECT_EQ(streaming.status().code(), oracle.status().code());
        continue;
      }
      expectSameSeries(streaming.value().series, oracle.value(), "sweep");

      // Scan direction must not matter: re-run with ROLLING flipped.
      TemporalSpec flipped = spec;
      flipped.rolling = !spec.rolling;
      auto other = evalPartials(query, flipped, live, indexed);
      ASSERT_TRUE(other.isOk()) << other.status().toString();
      std::vector<std::vector<TemporalStep>> one;
      one.push_back(std::move(other.value()));
      auto combined = combinePartials(query, one);
      ASSERT_TRUE(combined.isOk());
      expectSameSeries(streaming.value().series, combined.value().series,
                       "rolling-vs-forward");

      // WHEN verdict agrees with a recomputation over the oracle series.
      if (spec.when) {
        ASSERT_TRUE(streaming.value().verdict.has_value());
        const auto& v = *streaming.value().verdict;
        bool ever = false, always = true;
        std::optional<hlc::Timestamp> first, last;
        for (const auto& [at, r] : oracle.value()) {
          const bool held =
              whenConditionHolds(r, spec.when->op, spec.when->operand);
          ever = ever || held;
          always = always && held;
          if (held) {
            if (!first) first = at;
            last = at;
          }
        }
        EXPECT_EQ(v.everHeld, ever);
        EXPECT_EQ(v.alwaysHeld, always);
        EXPECT_EQ(v.firstHeld, first);
        EXPECT_EQ(v.lastHeld, last);
      }

      // The streaming engine materialized exactly one base state and
      // issued one diff per additional grid point.
      EXPECT_EQ(stats.diffCalls, temporalGrid(spec).size());
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential divergence at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Interleaved differential (RETRO_QUERY_SEEDS): the evaluator folds a
// store through a view, chunk by chunk, while puts, deletes and inserts
// land between chunks (logged after T0, some rehashing the index); its
// series must equal evalPartials over the final state for an interval up
// to T0.
// ---------------------------------------------------------------------------

TEST(TemporalQueryDifferential, InterleavedFoldMatchesOneShotOverFinalState) {
  static constexpr const char* kAggregates[] = {
      "COUNT WHERE value >= -20", "SUM WHERE key PREFIX 'k1'",
      "MIN WHERE value != 3", "MAX"};
  const uint64_t seeds = querySeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 3);
    sim::SimEnv env(seed);
    sim::SimContext ctx(env);
    sim::SimDisk disk(ctx, sim::DiskConfig{});
    store::BdbStore db(ctx, disk);
    log::WindowLog wlog(logConfigForSeed(seed));

    int64_t clock = 1;
    uint64_t keySpace = 4 + rng.nextBounded(40);
    const auto write = [&] {
      if (!rng.nextBool(0.3)) clock += 1 + rng.nextBounded(3);
      const Key key = "k" + std::to_string(rng.nextBounded(keySpace));
      const OptValue oldV = db.get(key);
      OptValue newV;
      if (!rng.nextBool(0.25)) {
        newV = rng.nextBool(0.1) ? Value("txt")
                                 : Value(std::to_string(rng.nextInt(-50, 50)));
      }
      wlog.append(key, oldV, newV, ts(clock));
      if (newV) {
        db.put(key, *newV);
      } else {
        db.remove(key);
      }
    };
    const int history = 100 + static_cast<int>(rng.nextBounded(300));
    for (int i = 0; i < history; ++i) write();

    const hlc::Timestamp t0 = ts(clock);
    const int64_t floorL = wlog.floor().l;
    const int64_t t1 =
        floorL + rng.nextInt(0, std::max<int64_t>(clock - floorL, 0));
    const int64_t t2 = t1 + rng.nextInt(0, clock - t1);
    std::string text = std::string(kAggregates[seed % 4]) + " OVER [" +
                       std::to_string(t1) + ", " + std::to_string(t2) +
                       "] STEP " + std::to_string(1 + rng.nextBounded(9));
    if ((seed / 4) % 2 == 1) text += " ROLLING";
    SCOPED_TRACE("query: " + text);
    auto parsed = SnapshotQuery::parse(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const SnapshotQuery& query = parsed.value();

    PartialsEvaluator eval(query, *query.temporal());
    ASSERT_TRUE(eval.check(wlog).isOk());
    auto view = db.openView();
    // Writes from here on come after T0, and reach keys never seen before.
    clock = t0.l + 1;
    keySpace *= 4;
    const uint64_t budget = 1 + rng.nextBounded(120);
    for (;;) {
      const auto read = view.read(
          budget, [&](const Key& k, const Value& v) { eval.fold(k, v); });
      if (read == store::BdbStore::ViewRead::kRestarted) {
        eval.reset();
        continue;
      }
      if (read == store::BdbStore::ViewRead::kDone) break;
      ASSERT_EQ(read, store::BdbStore::ViewRead::kMore);
      for (uint64_t n = rng.nextBounded(5); n > 0; --n) write();
    }
    for (uint64_t n = rng.nextBounded(20); n > 0; --n) write();

    auto chunked = eval.finish(
        wlog, t0, [&](const Key& k) { return view.valueAtOpen(k); });
    auto oneShot = evalPartials(query, *query.temporal(), db.data(), wlog);
    ASSERT_EQ(chunked.isOk(), oneShot.isOk())
        << (chunked.isOk() ? oneShot.status().toString()
                           : chunked.status().toString());
    if (!chunked.isOk()) {
      // A bounded window slid past T1 under the later writes.
      EXPECT_EQ(chunked.status().code(), StatusCode::kOutOfRange);
      EXPECT_EQ(oneShot.status().code(), StatusCode::kOutOfRange);
      continue;
    }
    ASSERT_EQ(chunked.value().size(), oneShot.value().size());
    for (size_t i = 0; i < chunked.value().size(); ++i) {
      EXPECT_EQ(chunked.value()[i], oneShot.value()[i]) << "step " << i;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "interleaved divergence at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Finish in pieces (RETRO_QUERY_SEEDS): the fold of the state at T0 is
// finished a budget at a time (1 byte, 7 bytes, unbounded), forward and
// ROLLING, while puts after T0 land between pieces and a bounded window
// trims under them.  The series and WHEN verdict must equal naive
// per-step materialization at T0, and a piece refuses with kOutOfRange
// exactly when the floor has passed T1 by then.
// ---------------------------------------------------------------------------

/// Naive per-step materialization of the state at T0: a copy of it
/// rolled back to each grid point (clamped to T0) by the linear scanner.
std::vector<std::pair<hlc::Timestamp, QueryResult>> naiveSeriesAtT0(
    const SnapshotQuery& query, const TemporalSpec& spec,
    const std::unordered_map<Key, Value>& stateAtT0, hlc::Timestamp t0,
    const log::NaiveWindowLog& oracle) {
  std::vector<std::pair<hlc::Timestamp, QueryResult>> out;
  for (const hlc::Timestamp& t : temporalGrid(spec)) {
    std::unordered_map<Key, Value> state = stateAtT0;
    auto diff = oracle.diffBackward(t0, std::min(t, t0));
    EXPECT_TRUE(diff.isOk()) << diff.status().toString();
    if (diff.isOk()) diff.value().applyTo(state);
    out.emplace_back(t, query.execute(state));
  }
  return out;
}

TEST(TemporalQueryDifferential, FinishInPiecesMatchesNaiveMaterialization) {
  static constexpr uint64_t kBudgets[] = {1, 7, UINT64_MAX};
  const uint64_t seeds = querySeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 4099 + 11);
    const log::WindowLogConfig cfg = logConfigForSeed(seed);
    log::WindowLog indexed(cfg);
    log::NaiveWindowLog naive(cfg);
    std::unordered_map<Key, Value> live;
    const int keySpace = 2 + static_cast<int>(rng.nextBounded(40));
    int64_t clock = 1;
    const auto put = [&](int op) {
      const Key key = "k" + std::to_string(rng.nextBounded(keySpace));
      const auto it = live.find(key);
      const OptValue oldV =
          it == live.end() ? OptValue{} : OptValue{it->second};
      OptValue newV;
      if (!rng.nextBool(0.25)) {
        newV = rng.nextBool(0.15)
                   ? Value("txt" + std::to_string(op))
                   : Value(std::to_string(rng.nextInt(-50, 50)));
      }
      indexed.append(key, oldV, newV, ts(clock));
      naive.append(key, oldV, newV, ts(clock));
      if (newV) {
        live[key] = *newV;
      } else {
        live.erase(key);
      }
    };
    for (int op = 0; op < 150 + static_cast<int>(rng.nextBounded(200));
         ++op) {
      if (!rng.nextBool(0.2)) clock += 1 + rng.nextBounded(4);
      put(op);
    }

    for (int probe = 0; probe < 6; ++probe) {
      const hlc::Timestamp t0 = indexed.latest();
      const std::unordered_map<Key, Value> stateAtT0 = live;
      const int64_t floorL = indexed.floor().l;
      const int64_t span = std::max<int64_t>(t0.l - floorL, 1);
      int64_t t1 = floorL + rng.nextInt(0, span);
      if (rng.nextBool(0.1)) t1 = floorL - 1;
      const int64_t t2 = t1 + rng.nextInt(0, span + 10);
      std::string text = queryTextFor(rng) + " OVER [" + std::to_string(t1) +
                         ", " + std::to_string(t2) + "] STEP " +
                         std::to_string(1 + rng.nextInt(0, 12));
      if (rng.nextBool(0.4)) {
        text += " WHEN > " + std::to_string(rng.nextInt(-3, 6)) + " EVER";
      }
      auto parsed = SnapshotQuery::parse(text);
      ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
      const SnapshotQuery& query = parsed.value();
      const auto naiveOk = naive.covers(query.temporal()->from);
      const auto expected =
          naiveOk ? naiveSeriesAtT0(query, *query.temporal(), stateAtT0, t0,
                                    naive)
                  : std::vector<std::pair<hlc::Timestamp, QueryResult>>{};

      for (const bool rolling : {false, true}) {
        const uint64_t budget = kBudgets[(probe + (rolling ? 1 : 0)) % 3];
        SCOPED_TRACE(text + (rolling ? " ROLLING" : "") + " budget " +
                     std::to_string(budget));
        TemporalSpec spec = *query.temporal();
        spec.rolling = rolling;
        PartialsEvaluator eval(query, spec);
        for (const auto& [k, v] : stateAtT0) eval.fold(k, v);
        const auto valueAtT0 = [&](const Key& k) -> const Value* {
          const auto it = stateAtT0.find(k);
          return it == stateAtT0.end() ? nullptr : &it->second;
        };
        ReplayStats stats;
        std::optional<StatusCode> refused;
        int putsLeft = 40;
        for (int piece = 0;; ++piece) {
          const bool mustRefuse = !naive.covers(spec.from);
          auto done = eval.finishPart(indexed, t0, valueAtT0, budget, &stats);
          if (mustRefuse) {
            ASSERT_FALSE(done.isOk()) << "piece " << piece;
            refused = done.status().code();
            break;
          }
          ASSERT_TRUE(done.isOk()) << done.status().toString();
          if (budget == UINT64_MAX) {
            EXPECT_TRUE(done.value());
          }
          if (done.value()) break;
          // Puts after T0 between pieces; a bounded window trims.
          if (putsLeft > 0 && rng.nextBool(0.3)) {
            for (uint64_t n = 1 + rng.nextBounded(3); n > 0; --n, --putsLeft) {
              clock += 1 + rng.nextBounded(3);
              put(piece);
            }
          }
        }
        if (refused) {
          EXPECT_EQ(*refused, StatusCode::kOutOfRange);
          continue;
        }
        ASSERT_TRUE(naiveOk);
        EXPECT_EQ(stats.diffCalls, temporalGrid(spec).size());
        auto combined = combinePartials(query, {eval.takeSeries()});
        ASSERT_TRUE(combined.isOk()) << combined.status().toString();
        expectSameSeries(combined.value().series, expected, "pieces");
        if (spec.when) {
          ASSERT_TRUE(combined.value().verdict.has_value());
          const auto& v = *combined.value().verdict;
          bool ever = false, always = true;
          std::optional<hlc::Timestamp> first, last;
          for (const auto& [at, r] : expected) {
            const bool held =
                whenConditionHolds(r, spec.when->op, spec.when->operand);
            ever = ever || held;
            always = always && held;
            if (held) {
              if (!first) first = at;
              last = at;
            }
          }
          EXPECT_EQ(v.everHeld, ever);
          EXPECT_EQ(v.alwaysHeld, always);
          EXPECT_EQ(v.firstHeld, first);
          EXPECT_EQ(v.lastHeld, last);
        }
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "finish-in-pieces divergence at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// The same oracle over a real cluster whose window-log history spans
// crash/restart recovery and repaired bit-rot.
// ---------------------------------------------------------------------------

kv::ClusterConfig faultClusterConfig(uint64_t seed) {
  kv::ClusterConfig cfg;
  cfg.servers = 3;
  cfg.clients = 2;
  cfg.seed = seed;
  cfg.server.logConfig.maxBytes = 0;
  cfg.server.bdb.cleanerEnabled = false;
  cfg.admin.requestTimeoutMicros = 200'000;
  return cfg;
}

/// Closed-loop write/read load against the cluster's clients.  The
/// returned driver must outlive env().run().
std::unique_ptr<workload::ClosedLoopDriver> startWorkload(
    kv::VoldemortCluster& cluster, uint64_t keySpace, TimeMicros deadline) {
  std::vector<workload::ClientHandle> handles;
  for (size_t i = 0; i < cluster.clientCount(); ++i) {
    kv::VoldemortClient* c = &cluster.client(i);
    workload::ClientHandle h;
    h.put = [c](const Key& k, Value v,
                std::function<void(bool, TimeMicros)> done) {
      c->put(k, std::move(v), std::move(done));
    };
    h.get = [c](const Key& k, std::function<void(bool, TimeMicros)> done) {
      c->get(k, [done = std::move(done)](bool ok, TimeMicros lat, OptValue) {
        done(ok, lat);
      });
    };
    handles.push_back(std::move(h));
  }
  workload::DriverConfig dcfg;
  dcfg.workload.keySpace = keySpace;
  dcfg.workload.valueBytes = 24;
  auto driver = std::make_unique<workload::ClosedLoopDriver>(
      cluster.env(), std::move(handles), kv::VoldemortCluster::keyOf, dcfg);
  driver->start(deadline);
  return driver;
}

/// Rebuild a NaiveWindowLog mirror of a server's post-fault window-log:
/// same floor, same surviving entries.  Everything the server's log went
/// through (recovery resets, WAL tail replay, repair appends) is already
/// reflected in its entry sequence.
log::NaiveWindowLog mirrorOf(const log::WindowLog& wlog) {
  log::NaiveWindowLog naive;
  naive.resetForRecovery(wlog.floor());
  wlog.forEach([&](const log::Entry& e) { naive.append(e); });
  return naive;
}

void expectServerStreamingMatchesOracle(kv::VoldemortServer& srv,
                                        const std::string& queryText) {
  SCOPED_TRACE("server " + std::to_string(srv.id()) + " query " + queryText);
  auto parsed = SnapshotQuery::parse(queryText);
  ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
  const SnapshotQuery& query = parsed.value();
  const log::WindowLog& wlog =
      srv.retroscope().getLog(kv::VoldemortServer::kStoreLog);
  const log::NaiveWindowLog naive = mirrorOf(wlog);

  auto streaming = evalOverLog(query, srv.bdb().data(), wlog);
  auto oracle = naiveSeries(query, *query.temporal(), srv.bdb().data(), naive);
  ASSERT_EQ(streaming.isOk(), oracle.isOk())
      << (streaming.isOk() ? oracle.status().toString()
                           : streaming.status().toString());
  if (!streaming.isOk()) {
    EXPECT_EQ(streaming.status().code(), oracle.status().code());
    return;
  }
  expectSameSeries(streaming.value().series, oracle.value(), "cluster");
}

TEST(TemporalQueryFaults, SweepAcrossCrashRestartAndBitRot) {
  const uint64_t seeds = std::max<uint64_t>(querySeedCount() / 16, 4);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    kv::VoldemortCluster cluster(faultClusterConfig(seed));
    cluster.preload(400, 24);
    auto driver = startWorkload(cluster, 400, 3 * kMicrosPerSecond);

    // Crash/restart on every seed; bit-rot additionally on even seeds
    // (rot is planted pre-crash so the restart CRC scan finds it and the
    // scrub repairs from replicas before we compare).
    const size_t victim = static_cast<size_t>(seed % 3);
    cluster.env().scheduleAt(kMicrosPerSecond, [&cluster, victim, seed] {
      auto& srv = cluster.server(victim);
      if (seed % 2 == 0 && !srv.bdb().data().empty()) {
        srv.bdb().corruptRecordValue(srv.bdb().data().begin()->first,
                                     0xDEADBEEFu ^ seed);
      }
      srv.crash();
    });
    cluster.env().scheduleAt(
        kMicrosPerSecond + 200'000,
        [&cluster, victim] { cluster.server(victim).restart(); });
    cluster.env().run();

    for (size_t s = 0; s < cluster.serverCount(); ++s) {
      auto& srv = cluster.server(s);
      // Unrepaired quarantine refuses queries (checked elsewhere); here
      // we compare engines on every node that serves.
      if (!srv.isAlive() || srv.quarantinedKeyCount() > 0) continue;
      const log::WindowLog& wlog =
          srv.retroscope().getLog(kv::VoldemortServer::kStoreLog);
      if (wlog.empty()) continue;
      const int64_t floorL = wlog.floor().l;
      const int64_t latestL = wlog.latest().l;
      const int64_t t1 = floorL + (latestL - floorL) / 4;
      const std::string over = " OVER [" + std::to_string(t1) + ", " +
                               std::to_string(latestL) + "] STEP 250";
      expectServerStreamingMatchesOracle(srv, "COUNT" + over);
      expectServerStreamingMatchesOracle(
          srv, "SUM WHERE key PREFIX 'key-'" + over);
      expectServerStreamingMatchesOracle(srv, "MAX" + over + " ROLLING");
      // History from before the recovery floor must refuse identically
      // on both engines (only meaningful when a floor exists).
      if (floorL > 0) {
        const std::string tooOld = " OVER [" + std::to_string(floorL - 10) +
                                   ", " + std::to_string(latestL) +
                                   "] STEP 300";
        expectServerStreamingMatchesOracle(srv, "COUNT" + tooOld);
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "fault-sweep divergence at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Distributed path: doQuery fans out, merges per-node partials only.
// ---------------------------------------------------------------------------

TEST(TemporalQueryDistributed, DoQueryMergesPerNodePartials) {
  kv::VoldemortCluster cluster(faultClusterConfig(21));
  cluster.preload(500, 24);
  auto driver = startWorkload(cluster, 500, 2 * kMicrosPerSecond);
  cluster.env().run();  // drain the workload first

  // Pick an interval every node's window still covers.
  int64_t maxFloor = 0, minLatest = std::numeric_limits<int64_t>::max();
  for (size_t s = 0; s < cluster.serverCount(); ++s) {
    const log::WindowLog& wlog =
        cluster.server(s).retroscope().getLog(kv::VoldemortServer::kStoreLog);
    ASSERT_FALSE(wlog.empty());
    maxFloor = std::max(maxFloor, wlog.floor().l);
    minLatest = std::min(minLatest, wlog.latest().l);
  }
  ASSERT_LT(maxFloor, minLatest);
  const std::string text = "SUM WHERE key PREFIX 'key-' OVER [" +
                           std::to_string(maxFloor) + ", " +
                           std::to_string(minLatest) +
                           "] STEP 400 WHEN >= 0 ALWAYS";

  // Oracle: each node's naive per-step partials, merged coordinator-side
  // exactly as doQuery would.  Captured BEFORE the query runs so the
  // comparison is against the same frozen history.
  auto parsed = SnapshotQuery::parse(text);
  ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
  std::vector<std::vector<TemporalStep>> perNodePartials;
  for (size_t s = 0; s < cluster.serverCount(); ++s) {
    auto& srv = cluster.server(s);
    const log::NaiveWindowLog naive =
        mirrorOf(srv.retroscope().getLog(kv::VoldemortServer::kStoreLog));
    std::vector<TemporalStep> steps;
    for (const hlc::Timestamp& t : temporalGrid(*parsed.value().temporal())) {
      std::unordered_map<Key, Value> state = srv.bdb().data();
      auto diff = naive.diffToPast(t);
      ASSERT_TRUE(diff.isOk()) << diff.status().toString();
      diff.value().applyTo(state);
      steps.push_back({t, parsed.value().accumulate(state)});
    }
    perNodePartials.push_back(std::move(steps));
  }
  auto expected = combinePartials(parsed.value(), perNodePartials);
  ASSERT_TRUE(expected.isOk()) << expected.status().toString();

  bool done = false;
  kv::QueryOutcome outcome;
  cluster.env().schedule(0, [&] {
    cluster.admin().doQuery(text, [&](const kv::QueryOutcome& o) {
      done = true;
      outcome = o;
    });
  });
  cluster.env().run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.status.isOk()) << outcome.status.toString();
  EXPECT_EQ(outcome.responded, cluster.serverCount());

  expectSameSeries(outcome.result.series, expected.value().series,
                   "distributed");
  ASSERT_TRUE(outcome.result.verdict.has_value());
  EXPECT_EQ(outcome.result.verdict->alwaysHeld,
            expected.value().verdict->alwaysHeld);
  EXPECT_EQ(outcome.result.verdict->everHeld,
            expected.value().verdict->everHeld);
}

TEST(TemporalQueryDistributed, CrashedNodeTimesOutAndQuerySettlesPartial) {
  auto cfg = faultClusterConfig(33);
  cfg.admin.queryTimeoutMicros = 500'000;
  kv::VoldemortCluster cluster(cfg);
  cluster.preload(300, 24);
  const NodeId crashed = cluster.server(1).id();

  bool done = false;
  kv::QueryOutcome outcome;
  cluster.env().scheduleAt(kMicrosPerSecond,
                           [&] { cluster.server(1).crash(); });
  cluster.env().scheduleAt(kMicrosPerSecond + 100'000, [&] {
    const int64_t now = static_cast<int64_t>(cluster.env().now() / 1000);
    cluster.admin().doQuery(
        "COUNT OVER [" + std::to_string(now > 500 ? now - 500 : 0) + ", " +
            std::to_string(now) + "] STEP 100",
        [&](const kv::QueryOutcome& o) {
          done = true;
          outcome = o;
        });
  });
  cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.status.isOk());
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(outcome.failures.contains(crashed));
  EXPECT_EQ(outcome.failures.at(crashed), FailureReason::kTimedOut);
  // The live nodes still answered.
  EXPECT_EQ(outcome.responded, cluster.serverCount() - 1);
}

TEST(TemporalQueryDistributed, QuarantinedNodeRefusesWithCorrupted) {
  kv::VoldemortCluster cluster(faultClusterConfig(44));
  cluster.preload(400, 32);
  auto& srv = cluster.server(0);
  const NodeId tainted = srv.id();
  srv.setRepairTopology(nullptr, {}, 0);  // nowhere to repair from
  const Key victim = srv.bdb().data().begin()->first;

  cluster.env().scheduleAt(kMicrosPerSecond, [&] {
    ASSERT_TRUE(srv.bdb().corruptRecordValue(victim, 0xBADF00Du));
    srv.crash();
  });
  cluster.env().scheduleAt(kMicrosPerSecond + 200'000, [&] { srv.restart(); });

  bool done = false;
  kv::QueryOutcome outcome;
  cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    ASSERT_GT(srv.quarantinedKeyCount(), 0u);
    const int64_t now = static_cast<int64_t>(cluster.env().now() / 1000);
    cluster.admin().doQuery(
        "COUNT OVER [" + std::to_string(now > 300 ? now - 300 : 0) + ", " +
            std::to_string(now) + "] STEP 100",
        [&](const kv::QueryOutcome& o) {
          done = true;
          outcome = o;
        });
  });
  cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.status.isOk());
  ASSERT_TRUE(outcome.failures.contains(tainted));
  EXPECT_EQ(outcome.failures.at(tainted), FailureReason::kCorrupted);
  EXPECT_FALSE(outcome.failureDetails.at(tainted).empty());
}

// ---------------------------------------------------------------------------
// Interval edge cases.
// ---------------------------------------------------------------------------

class TemporalQueryEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 1; i <= 100; ++i) {
      const Key key = "k" + std::to_string(i % 5);
      const auto it = live_.find(key);
      const OptValue oldV =
          it == live_.end() ? OptValue{} : OptValue{it->second};
      const Value v = std::to_string(i);
      wlog_.append(key, oldV, v, ts(i));
      live_[key] = v;
    }
  }

  Result<TemporalQueryResult> run(const std::string& text) {
    auto parsed = SnapshotQuery::parse(text);
    if (!parsed.isOk()) return parsed.status();
    return evalOverLog(parsed.value(), live_, wlog_);
  }

  log::WindowLog wlog_;
  std::unordered_map<Key, Value> live_;
};

TEST_F(TemporalQueryEdge, PointIntervalYieldsSingleStep) {
  auto r = run("COUNT OVER [50, 50] STEP 10");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ(r.value().series.size(), 1u);
  EXPECT_EQ(r.value().series[0].first, ts(50));
  EXPECT_EQ(r.value().series[0].second.matched, 5u);
}

TEST_F(TemporalQueryEdge, InvertedIntervalRefusedAtParse) {
  auto parsed = SnapshotQuery::parse("COUNT OVER [60, 40] STEP 5");
  ASSERT_FALSE(parsed.isOk());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("empty temporal interval"),
            std::string::npos);
}

TEST_F(TemporalQueryEdge, InvertedSpecRefusedAtEvaluation) {
  // A hand-built spec bypasses the parser; the engine re-validates.
  TemporalSpec spec;
  spec.from = ts(60);
  spec.to = ts(40);
  spec.stepMillis = 5;
  auto q = SnapshotQuery::parse("COUNT");
  ASSERT_TRUE(q.isOk());
  auto r = evalPartials(q.value(), spec, live_, wlog_);
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TemporalQueryEdge, StartBeforeFloorIsStructuredRefusal) {
  wlog_.truncateThrough(ts(30));
  auto r = run("COUNT OVER [10, 90] STEP 5");
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // The refusal names the floor so the caller can narrow and retry —
  // never a silently truncated series.
  EXPECT_NE(r.status().message().find(wlog_.floor().toString()),
            std::string::npos);
}

TEST_F(TemporalQueryEdge, WindowSlidingPastStartMidFoldRefuses) {
  auto q = SnapshotQuery::parse("COUNT OVER [20, 60] STEP 10");
  ASSERT_TRUE(q.isOk());
  PartialsEvaluator eval(q.value(), *q.value().temporal());
  ASSERT_TRUE(eval.check(wlog_).isOk());
  for (const auto& [k, v] : live_) eval.fold(k, v);
  wlog_.truncateThrough(ts(30));  // the window slides while folding
  auto r = eval.finish(wlog_, wlog_.latest(), [&](const Key& k) {
    const auto it = live_.find(k);
    return it == live_.end() ? nullptr : &it->second;
  });
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(TemporalQueryEdge, StepLargerThanIntervalDegeneratesToStart) {
  auto r = run("COUNT OVER [40, 60] STEP 500");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ(r.value().series.size(), 1u);
  EXPECT_EQ(r.value().series[0].first, ts(40));
}

TEST_F(TemporalQueryEdge, WindowStartingAtTruncationBoundaryWorks) {
  wlog_.truncateThrough(ts(30));
  // Starting exactly at the new floor is legal; a grid crossing the old
  // history would have refused (prior test).
  auto r = run("SUM OVER [30, 100] STEP 7");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r.value().series.front().first, ts(30));
  // Grid points are from + i*step, clipped at to (30 + 10*7 = 100).
  EXPECT_EQ(r.value().series.size(), 11u);
  EXPECT_EQ(r.value().series.back().first, ts(30 + 10 * 7));
}

TEST_F(TemporalQueryEdge, RollingGridAlignsWithForwardOnRaggedInterval) {
  // (97 - 13) % 9 != 0: the last grid point undershoots `to`; the
  // backward scan must evaluate at exactly the forward grid points, not
  // at to-i*step (rolling-mode wraparound).
  auto fwd = run("AVG OVER [13, 97] STEP 9");
  auto roll = run("AVG OVER [13, 97] STEP 9 ROLLING");
  ASSERT_TRUE(fwd.isOk() && roll.isOk());
  ASSERT_EQ(fwd.value().series.size(), roll.value().series.size());
  for (size_t i = 0; i < fwd.value().series.size(); ++i) {
    EXPECT_EQ(fwd.value().series[i].first, roll.value().series[i].first);
    EXPECT_EQ(fwd.value().series[i].second, roll.value().series[i].second);
  }
  EXPECT_EQ(fwd.value().series.back().first, ts(13 + 9 * 9));  // 94, not 97
}

TEST_F(TemporalQueryEdge, IntervalBeyondLatestSeesFrozenTail) {
  // Grid points after the last change see the final state; the diff
  // engine returns empty diffs, not errors.
  auto r = run("COUNT OVER [90, 200] STEP 50");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ(r.value().series.size(), 3u);
  EXPECT_EQ(r.value().series[1].second.matched, 5u);
  EXPECT_EQ(r.value().series[2].second.matched, 5u);
}

}  // namespace
}  // namespace retro::core
