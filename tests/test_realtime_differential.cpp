// The sim-vs-real differential suite (TESTING.md): one seeded workload
// is pushed through BOTH runtimes — the deterministic simulator
// (VoldemortCluster) and the thread-per-node realtime runtime
// (RealtimeKvCluster) — and the two executions must agree on
//
//   1. per-server final key-value state (exact map equality),
//   2. snapshot completion (both runtimes reach kComplete), and in each
//      runtime every server's stored snapshot equals the replay of its
//      own window-log appends up to the target — the copy runs a few
//      keys per task, so puts land between its chunks,
//   3. distributed temporal-query results (same matched count and
//      aggregate value for a final-state SUM),
//
// while the realtime run additionally proves its retrospective cuts
// with the adversarial cut checker: the snapshot-target cut and a
// battery of random probes must be consistent AND vector-clock-maximal,
// per-node HLC sequences monotone, and perceived clocks inside the
// configured skew bound.
//
// Workload design notes (why exact equality is achievable):
//   * keys are client-partitioned, so no two clients ever race on a
//     key and "last write" is defined by each client's own sequence;
//   * clients run closed-loop (next op issued from the completion
//     callback), so each client's sequence is totally ordered in both
//     runtimes;
//   * requiredWrites == replicas and the sim network drops nothing, so
//     a completed put implies every replica holds the value;
//   * values are numeric strings, so a SUM aggregate over the final
//     state is exact-integer and must agree bit-for-bit.
//
// Seeds: RETRO_DIFF_SEEDS overrides the sweep width (default 64);
// RETRO_FUZZ_SEED pins a single seed for reproduction.  All realtime
// waits take their budget from RETRO_REALTIME_TIMEOUT_MS.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/cluster.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "runtime/deadline.hpp"
#include "testing/cut_checker.hpp"
#include "testing/fuzz.hpp"

namespace retro::kv {
namespace {

constexpr size_t kServers = 3;
constexpr size_t kClients = 2;
constexpr size_t kKeysPerClient = 12;
constexpr int kOpsPerClient = 24;
constexpr int64_t kMaxSkewMillis = 2;

struct Op {
  Key key;
  Value value;
};

/// The per-client op sequence is a pure function of (seed, client):
/// both runtimes replay exactly this.
std::vector<std::vector<Op>> makeWorkload(uint64_t seed) {
  std::vector<std::vector<Op>> ops(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    SplitMix64 rng(seed * 7919 + c);
    for (int i = 0; i < kOpsPerClient; ++i) {
      const uint64_t keyIdx = c * 1'000 + rng.next() % kKeysPerClient;
      ops[c].push_back(
          {VoldemortCluster::keyOf(keyIdx),
           std::to_string(c * 1'000'000 + static_cast<uint64_t>(i))});
    }
  }
  return ops;
}

ClientConfig diffClientConfig() {
  ClientConfig cfg;
  cfg.replicas = 2;
  cfg.requiredWrites = 2;  // == replicas: completed put => all copies
  cfg.requiredReads = 1;
  return cfg;
}

ServerConfig diffServerConfig() {
  ServerConfig cfg;
  // Light service times for the simulator run; the realtime run charges
  // no modelled time, so it ignores them.
  cfg.putServiceMicros = 50;
  cfg.getServiceMicros = 30;
  // About two keys per copy task.
  cfg.copyChunkBytes = 32;
  return cfg;
}

std::string sumQueryText(int64_t atMillis) {
  return "SUM WHERE key PREFIX 'key-' OVER [" + std::to_string(atMillis) +
         ", " + std::to_string(atMillis) + "] STEP 1";
}

/// Everything the two executions must agree on.
struct RunOutcome {
  std::vector<std::map<Key, Value>> perServer;
  bool snapshotComplete = false;
  bool queryOk = false;
  uint64_t queryMatched = 0;
  double queryValue = 0;
  bool queryHasValue = false;
};

/// Shared driver state: one closed loop per client, a snapshot kicked
/// off by client 0 halfway through its sequence, then a final-state SUM
/// query.  Identical logic drives both runtimes; only the "wait" differs.
struct Driver {
  const std::vector<std::vector<Op>>& ops;
  std::vector<size_t> nextOp;
  std::atomic<int> opsDone{0};
  std::atomic<bool> snapshotRequested{false};
  std::atomic<bool> snapshotDone{false};
  std::atomic<bool> snapshotComplete{false};
  hlc::Timestamp snapshotTarget;  // written on the admin thread before
                                  // snapshotDone is set (acquire pairs)
  core::SnapshotId snapshotId = 0;  // same publication discipline
  std::atomic<bool> queryDone{false};
  QueryOutcome queryOutcome;  // same publication discipline

  explicit Driver(const std::vector<std::vector<Op>>& workload)
      : ops(workload), nextOp(workload.size(), 0) {}

  int totalOps() const {
    int total = 0;
    for (const auto& seq : ops) total += static_cast<int>(seq.size());
    return total;
  }

  /// Issue client `c`'s next op; runs on (and re-arms itself on) the
  /// client's execution context thread.
  template <typename Cluster>
  void pump(Cluster& cluster, size_t c) {
    if (nextOp[c] >= ops[c].size()) return;
    const Op& op = ops[c][nextOp[c]++];
    cluster.client(c).put(op.key, op.value, [this, &cluster, c](
                                                bool ok, TimeMicros) {
      ASSERT_TRUE(ok) << "client " << c << " put failed";
      const int done = opsDone.fetch_add(1) + 1;
      // Halfway in, client 0 asks the admin (on the admin's own
      // thread) for an instant snapshot — a mid-flight cut.
      if (c == 0 && nextOp[c] == ops[c].size() / 2 &&
          !snapshotRequested.exchange(true)) {
        cluster.context().post(
            cluster.adminId(), [this, &cluster] {
              cluster.admin().snapshotNow([this](
                                              const core::SnapshotSession& s) {
                snapshotTarget = s.request().target;
                snapshotId = s.request().id;
                snapshotComplete.store(
                    s.state() == core::GlobalSnapshotState::kComplete);
                snapshotDone.store(true, std::memory_order_release);
              });
            });
      }
      (void)done;
      pump(cluster, c);
    });
  }

  /// Ask the admin for the final-state SUM; must run on the admin
  /// thread (it reads the admin's HLC to pick a cut time covering
  /// every completed write).
  template <typename Cluster>
  void runQuery(Cluster& cluster) {
    cluster.context().post(cluster.adminId(), [this, &cluster] {
      // The admin merged server HLCs during the snapshot and physical
      // time has passed since the last write; +10ms of margin puts the
      // probe safely above every write in either runtime's time base.
      const int64_t atMillis = cluster.admin().clock().tick().l + 10;
      cluster.admin().doQuery(sumQueryText(atMillis),
                              [this](const QueryOutcome& outcome) {
                                queryOutcome = outcome;
                                queryDone.store(true,
                                                std::memory_order_release);
                              });
    });
  }

  void fill(RunOutcome& out) const {
    out.snapshotComplete = snapshotComplete.load();
    out.queryOk = queryOutcome.status.isOk();
    if (out.queryOk && queryOutcome.result.series.size() == 1) {
      const auto& r = queryOutcome.result.series[0].second;
      out.queryMatched = r.matched;
      out.queryValue = r.value;
      out.queryHasValue = r.hasValue;
    }
  }
};

/// Every window-log append on each server, recorded on the server's own
/// thread; read only after the run.
template <typename Cluster>
std::unique_ptr<std::vector<log::Entry>[]> recordAppends(Cluster& cluster) {
  auto appends = std::make_unique<std::vector<log::Entry>[]>(kServers);
  for (size_t i = 0; i < kServers; ++i) {
    cluster.server(i).setAppendObserver(
        [sink = &appends[i]](const log::Entry& e) { sink->push_back(e); });
  }
  return appends;
}

/// Each server's stored snapshot holds exactly its appends at or before
/// the target (no preload, no grafts: the stores start empty).
template <typename Cluster>
void expectSnapshotsMatchAppends(Cluster& cluster,
                                 const std::vector<log::Entry>* appends,
                                 core::SnapshotId id, hlc::Timestamp target) {
  for (size_t i = 0; i < kServers; ++i) {
    auto stored = cluster.server(i).snapshots().materialize(id);
    ASSERT_TRUE(stored.isOk())
        << "server " << i << ": " << stored.status().toString();
    std::unordered_map<Key, Value> expected;
    for (const log::Entry& e : appends[i]) {
      if (target < e.ts) continue;
      if (e.newValue) {
        expected[e.key] = *e.newValue;
      } else {
        expected.erase(e.key);
      }
    }
    EXPECT_EQ(stored.value(), expected) << "server " << i;
  }
}

template <typename Cluster>
std::vector<std::map<Key, Value>> collectServerState(Cluster& cluster) {
  std::vector<std::map<Key, Value>> state;
  for (size_t i = 0; i < kServers; ++i) {
    const auto& data = cluster.server(i).bdb().data();
    state.emplace_back(data.begin(), data.end());
  }
  return state;
}

RunOutcome runSim(uint64_t seed, const std::vector<std::vector<Op>>& ops) {
  ClusterConfig cfg;
  cfg.servers = kServers;
  cfg.clients = kClients;
  cfg.seed = seed;
  cfg.ringVirtualNodes = 32;
  cfg.server = diffServerConfig();
  cfg.client = diffClientConfig();
  VoldemortCluster cluster(cfg);
  const auto appends = recordAppends(cluster);

  Driver driver(ops);
  for (size_t c = 0; c < kClients; ++c) driver.pump(cluster, c);
  cluster.env().run();
  EXPECT_EQ(driver.opsDone.load(), driver.totalOps());
  EXPECT_TRUE(driver.snapshotDone.load());
  if (driver.snapshotComplete.load()) {
    expectSnapshotsMatchAppends(cluster, appends.get(), driver.snapshotId,
                                driver.snapshotTarget);
  }

  driver.runQuery(cluster);
  cluster.env().run();
  EXPECT_TRUE(driver.queryDone.load());

  RunOutcome out;
  driver.fill(out);
  out.perServer = collectServerState(cluster);
  return out;
}

RunOutcome runRealtime(uint64_t seed,
                       const std::vector<std::vector<Op>>& ops) {
  RealtimeClusterConfig cfg;
  cfg.servers = kServers;
  cfg.clients = kClients;
  cfg.seed = seed;
  cfg.ringVirtualNodes = 32;
  cfg.maxSkewMillis = kMaxSkewMillis;
  cfg.server = diffServerConfig();
  cfg.client = diffClientConfig();
  RealtimeKvCluster cluster(cfg);
  cluster.enableCausalityTrace();
  const auto appends = recordAppends(cluster);

  Driver driver(ops);
  cluster.start();
  for (size_t c = 0; c < kClients; ++c) {
    cluster.context().post(cluster.clientId(c),
                           [&driver, &cluster, c] { driver.pump(cluster, c); });
  }
  EXPECT_TRUE(runtime::waitForCondition([&] {
    return driver.opsDone.load() == driver.totalOps() &&
           driver.snapshotDone.load(std::memory_order_acquire);
  })) << "ops " << driver.opsDone.load() << "/" << driver.totalOps()
      << " snapshotDone " << driver.snapshotDone.load();

  driver.runQuery(cluster);
  EXPECT_TRUE(runtime::waitForCondition(
      [&] { return driver.queryDone.load(std::memory_order_acquire); }));
  cluster.stop();  // join node threads; cluster state now safely readable

  RunOutcome out;
  driver.fill(out);
  out.perServer = collectServerState(cluster);
  if (out.snapshotComplete) {
    expectSnapshotsMatchAppends(cluster, appends.get(), driver.snapshotId,
                                driver.snapshotTarget);
  }

  // The realtime-only obligation: every retrospective cut implied by
  // this run must survive the adversarial checker.
  testing::CutChecker checker(cluster.trace()->recorder());
  testing::CheckReport report;
  checker.checkCutAt(driver.snapshotTarget, report);
  checker.checkRandomProbes(seed, 8, report);
  checker.checkMonotonicity(report);
  checker.checkSkewBound(kMaxSkewMillis * 1'000, report);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.summary();
  EXPECT_GT(report.cutsChecked, 0u);
  return out;
}

/// The per-seed agreement obligations; a void helper so an ASSERT only
/// aborts this seed's comparison, not the sweep's artifact bookkeeping.
void compareOutcomes(const RunOutcome& sim, const RunOutcome& real) {
  // (1) exact per-server final state.
  ASSERT_EQ(sim.perServer.size(), real.perServer.size());
  for (size_t i = 0; i < sim.perServer.size(); ++i) {
    EXPECT_EQ(sim.perServer[i], real.perServer[i]) << "server " << i;
  }
  // (2) both snapshots completed.
  EXPECT_TRUE(sim.snapshotComplete);
  EXPECT_TRUE(real.snapshotComplete);
  // (3) identical distributed query results.
  ASSERT_TRUE(sim.queryOk);
  ASSERT_TRUE(real.queryOk);
  EXPECT_EQ(sim.queryMatched, real.queryMatched);
  EXPECT_EQ(sim.queryValue, real.queryValue);
  EXPECT_EQ(sim.queryHasValue, real.queryHasValue);
  EXPECT_TRUE(sim.queryHasValue);
  // Replicated final state is non-trivial: every client wrote to at
  // least one key, and SUM saw every replica.
  EXPECT_GT(sim.queryMatched, 0u);
}

TEST(RealtimeDifferential, SimAndRealtimeAgreeAcrossSeeds) {
  const int seeds = testing::seedCountFromEnv("RETRO_DIFF_SEEDS", 64);
  const auto pinned = testing::seedOverrideFromEnv();
  int ran = 0;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = pinned ? *pinned : static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto ops = makeWorkload(seed);

    const RunOutcome sim = runSim(seed, ops);
    const RunOutcome real = runRealtime(seed, ops);
    compareOutcomes(sim, real);

    if (::testing::Test::HasFailure()) {
      // Persist the repro recipe for CI artifact upload, then stop: a
      // diverged sweep's later seeds only pile noise onto the first.
      const std::string path = testing::writeRealtimeFailureArtifact(
          "test_realtime_differential", seed,
          "sim-vs-real divergence (full diagnosis in the test log)",
          "RETRO_FUZZ_SEED=" + std::to_string(seed) +
              " ./tests/test_realtime_differential");
      if (!path.empty()) {
        std::fprintf(stderr, "repro artifact written: %s\n", path.c_str());
      }
      break;
    }

    ++ran;
    if (pinned) break;  // reproduction mode: one seed only
  }
  EXPECT_GE(ran, 1);
}

}  // namespace
}  // namespace retro::kv
