// The realtime chaos suite (DESIGN.md §4f): Scenario fault scripts —
// the same ones the simulation fuzz consumes — replayed against the
// thread-per-node runtime through the runtime::FaultfulContext chaos
// plane, with every realtime RPC wait running its hardened deadline +
// capped-backoff retry configuration.
//
// Test 1 (ChaosSweep): a seed sweep (RETRO_CHAOS_SEEDS, default 128) of
// generated scenarios — drop/duplicate/reorder baselines plus scripted
// drop windows, latency spikes, asymmetric partitions, worker-thread
// stalls, crash/restart cycles, and (every third seed) clock-skew
// anomaly episodes.  The obligations are honesty, not success:
//   * every client op terminates (completed or honestly timed out);
//   * every snapshot session RESOLVES — kComplete or kPartial, never
//     stuck kInProgress, never a lie;
//   * every cut implied by the run is CONSISTENT and maximal under the
//     adversarial checker (completed snapshot targets + random probes),
//     per-node HLC sequences stay monotone, and — when no anomalies
//     were scripted — perceived clocks honor the skew bound.
//
// Test 1b (UdpChaosSweep): the same sweep with the cluster's wire
// switched to runtime::UdpContext — real UDP sockets on loopback with
// kernel-path datagram loss injected underneath the chaos plane, so the
// reliability layer (CRC framing, dedup, ack/retransmit, fragmentation,
// peer suspicion) carries the identical obligations the in-process
// transport does.  Failures persist the transport counters in the
// artifact.
//
// Test 2 (LosslessDifferential): sim vs realtime under the IDENTICAL
// fault script, restricted to the lossless kinds (latency spikes, node
// stalls) where exact agreement is still a theorem: same per-server
// final state, snapshot completion, and temporal-query answers.  The
// realtime leg runs TWICE — in-process channels and UDP loopback (with
// injected datagram loss that the retransmit layer must fully mask) —
// and both must agree byte-for-byte with the simulator.
//
// Test 3 (CrashRestartRecovery): the realtime crash()/restart()
// lifecycle head-on — a server killed mid-workload recovers its
// WAL/BDB-backed state, rejoins the wire, and a post-recovery snapshot
// completes with every pre-crash completed write intact.
//
// Plus ChaosPlaneRegression: unit-level pins for FaultfulContext fault
// semantics (independent duplicate delay, partition recheck at deferred
// fire time, counted overlapping pauses) against a recording inner
// context.
//
// Reproduction: RETRO_FUZZ_SEED pins one seed; failures persist
// fuzz-repro-test_realtime_chaos-seed<N>.txt for CI artifact upload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/cluster.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "runtime/deadline.hpp"
#include "runtime/faultful_context.hpp"
#include "runtime/realtime_context.hpp"
#include "runtime/udp_context.hpp"
#include "testing/cut_checker.hpp"
#include "testing/fault_injector.hpp"
#include "testing/fuzz.hpp"
#include "testing/realtime_faults.hpp"
#include "testing/scenario.hpp"

namespace retro::kv {
namespace {

/// Virtual-to-real compression for scenario fault/snapshot times: a
/// 2..5-virtual-second script plays out in 100..250 real milliseconds.
constexpr double kTimeScale = 0.05;
constexpr int64_t kMaxSkewMillis = 2;
constexpr int kChaosOpsPerClient = 24;

void writeChaosArtifact(uint64_t seed, const std::string& detail) {
  const std::string path = testing::writeRealtimeFailureArtifact(
      "test_realtime_chaos", seed, detail,
      "RETRO_FUZZ_SEED=" + std::to_string(seed) + " ./tests/test_realtime_chaos");
  if (!path.empty()) {
    std::fprintf(stderr, "repro artifact written: %s\n", path.c_str());
  }
}

/// Retry-hardened component configs: every realtime RPC wait gets a
/// deadline and capped-backoff resend, scaled to the compressed chaos
/// timeline so a seed's sweep stays well under a second.
void hardenConfigs(RealtimeClusterConfig& cfg) {
  cfg.client.replicas = 2;
  cfg.client.requiredWrites = 1;  // degrade writes gracefully under faults
  cfg.client.requiredReads = 1;
  cfg.client.opTimeoutMicros = 25'000;
  cfg.client.maxRetries = 3;
  cfg.client.retryBackoffBaseMicros = 2'000;
  cfg.client.retryBackoffCapMicros = 20'000;

  cfg.admin.requestTimeoutMicros = 30'000;
  cfg.admin.maxAttemptsPerNode = 4;
  cfg.admin.retryBackoffBaseMicros = 5'000;
  cfg.admin.retryBackoffCapMicros = 40'000;
  cfg.admin.replicaFallbacks = 2;
  cfg.admin.queryTimeoutMicros = 600'000;
  cfg.admin.queryRetryTimeoutMicros = 25'000;
  cfg.admin.queryMaxAttemptsPerNode = 3;
}

/// UDP reliability layer tuned to the compressed chaos timeline: 5%
/// kernel-path datagram loss (on top of whatever the chaos plane drops
/// above it), fast retransmits so recovery fits inside the 25 ms op
/// timeout, and a bounded per-datagram deadline so crashed peers are
/// suspected instead of pinning retransmit state forever.
runtime::UdpConfig udpChaosConfig(uint64_t seed) {
  runtime::UdpConfig u;
  u.datagramLossProbability = 0.05;
  u.lossSeed = seed;
  u.retransmit.maxAttempts = 10;
  u.retransmit.backoffBaseMicros = 1'000;
  u.retransmit.backoffCapMicros = 8'000;
  u.retransmit.totalDeadlineMicros = 150'000;
  u.suspectAfterExhaustions = 2;
  return u;
}

std::string formatTransportCounters(runtime::UdpContext* udp) {
  if (udp == nullptr) return {};
  std::string out = "udp transport counters:";
  for (const auto& [name, value] : udp->counters().sorted()) {
    out += "\n  " + name + " = " + std::to_string(value);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Test 1: the chaos sweep (in-process and UDP-loopback transports).
// ---------------------------------------------------------------------------

struct ChaosRunState {
  std::atomic<int> opsResolved{0};
  std::atomic<int> opsFailed{0};
  std::atomic<int> snapshotsResolved{0};
  std::atomic<bool> queryDone{false};
  std::mutex mu;  // guards the vectors below (admin thread writes)
  std::vector<core::GlobalSnapshotState> snapshotStates;
  std::vector<hlc::Timestamp> completedTargets;
};

/// The per-client closed loop, held behind a shared_ptr so completion
/// callbacks can re-arm it.  The self-reference is cleared after stop()
/// to break the ownership cycle (keeps LeakSanitizer quiet).
struct ChaosLoop {
  std::function<void(size_t, int)> issue;
};

/// One seed of the sweep.  A void function so gtest ASSERTs abort only
/// this seed; the caller checks HasFailure() to persist the artifact
/// (for UDP runs, `transportCounters` receives the reliability-layer
/// counters so the artifact can carry them).
void runChaosSeed(uint64_t seed, TransportKind transport,
                  std::string* transportCounters = nullptr) {
  testing::ScenarioOptions opts;
  opts.clockAnomalies = (seed % 3 == 0);
  const testing::Scenario sc =
      testing::generateScenario(seed, testing::Substrate::kKvStore, opts);
  SCOPED_TRACE(testing::describeScenario(sc));

  // Everything node threads reference is declared BEFORE the cluster, so
  // it outlives the worker joins on every exit path.
  ChaosRunState state;

  RealtimeClusterConfig cfg;
  cfg.servers = sc.servers;
  cfg.clients = sc.clients;
  cfg.seed = seed;
  cfg.ringVirtualNodes = 32;
  cfg.maxSkewMillis = kMaxSkewMillis;
  cfg.enableFaultPlane = true;
  cfg.faultPlane.seed = seed;
  cfg.faultPlane.dropProbability = sc.baseDropProbability;
  cfg.faultPlane.duplicateProbability = 0.05;
  cfg.faultPlane.reorderProbability = 0.10;
  cfg.faultPlane.reorderDelayMaxMicros = 5'000;
  // Detection-only ε bound: the chaos run keeps the detectors running on
  // real threads; the detection *assertions* live in test_hlc_clock
  // (EpsilonViolationDetection) and test_fuzz_clock_anomalies.
  cfg.epsilonMillis = 4 * kMaxSkewMillis + 4;
  hardenConfigs(cfg);
  // Copy and fold the small chaos stores a few keys per task, so snapshot
  // copies and queries interleave with puts on the node threads.
  cfg.server.copyChunkBytes = 256;
  cfg.transport = transport;
  if (transport == TransportKind::kUdpLoopback) cfg.udp = udpChaosConfig(seed);
  RealtimeKvCluster cluster(cfg);
  cluster.enableCausalityTrace();

  // --- fault script -> chaos plane, before start() ---
  testing::RealtimeFaultHooks hooks;
  hooks.skew = [&cluster](NodeId n, int64_t deltaMillis) {
    cluster.clockAt(n).injectOffset(deltaMillis);
  };
  hooks.crash = [&cluster](NodeId n) {
    cluster.crashServer(static_cast<size_t>(n));
  };
  hooks.restart = [&cluster](NodeId n) {
    cluster.restartServer(static_cast<size_t>(n));
  };
  testing::scheduleRealtimeFaults(*cluster.faultPlane(), cluster.controllerId(),
                                  hooks, sc, kTimeScale);

  // --- paced closed-loop workload (mixed puts/gets, chaos-tolerant) ---
  const int totalOps = static_cast<int>(sc.clients) * kChaosOpsPerClient;
  auto loop = std::make_shared<ChaosLoop>();
  loop->issue = [loop, seed, &sc, &state, &cluster](size_t c, int i) {
    if (i >= kChaosOpsPerClient) return;
    SplitMix64 rng(seed * 9973 + c * 131 + static_cast<uint64_t>(i));
    const Key key = RealtimeKvCluster::keyOf(rng.next() % sc.keySpace);
    const bool isPut =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < sc.writeFraction;
    const auto continueLoop = [loop, c, i, &state, &cluster](bool ok) {
      state.opsResolved.fetch_add(1);
      if (!ok) state.opsFailed.fetch_add(1);
      // Pace the loop so the op stream spans the fault window.
      cluster.nodeContext().schedule(cluster.clientId(c), 2'000,
                                     [loop, c, i] { loop->issue(c, i + 1); });
    };
    if (isPut) {
      cluster.client(c).put(
          key, "v" + std::to_string(i),
          [continueLoop](bool ok, TimeMicros) { continueLoop(ok); });
    } else {
      cluster.client(c).get(key, [continueLoop](bool ok, TimeMicros,
                                                OptValue) { continueLoop(ok); });
    }
  };

  // --- scenario snapshot plans, compressed onto the admin's timeline ---
  for (const testing::SnapshotPlan& p : sc.snapshots) {
    const auto at =
        static_cast<TimeMicros>(static_cast<double>(p.atMicros) * kTimeScale);
    const int64_t pastDelta = std::min<int64_t>(p.pastDeltaMillis, 40);
    cluster.nodeContext().schedule(
        cluster.adminId(), at, [&cluster, &state, pastDelta] {
          const auto done = [&state](const core::SnapshotSession& s) {
            {
              std::lock_guard lk(state.mu);
              state.snapshotStates.push_back(s.state());
              if (s.state() == core::GlobalSnapshotState::kComplete) {
                state.completedTargets.push_back(s.request().target);
              }
            }
            state.snapshotsResolved.fetch_add(1);
          };
          if (pastDelta > 0) {
            cluster.admin().snapshotPast(pastDelta, done);
          } else {
            cluster.admin().snapshotNow(done);
          }
        });
  }

  cluster.start();
  for (size_t c = 0; c < sc.clients; ++c) {
    cluster.nodeContext().post(cluster.clientId(c),
                               [loop, c] { loop->issue(c, 0); });
  }

  // Obligation 1: every op terminates; every snapshot session resolves.
  EXPECT_TRUE(runtime::waitForCondition([&] {
    return state.opsResolved.load() == totalOps &&
           state.snapshotsResolved.load() ==
               static_cast<int>(sc.snapshots.size());
  })) << "ops " << state.opsResolved.load() << "/" << totalOps
      << " snapshots " << state.snapshotsResolved.load() << "/"
      << sc.snapshots.size() << " (failed ops so far: "
      << state.opsFailed.load() << ")";

  // A distributed temporal query under chaos: the per-node deadline +
  // resend machinery must settle it — OK or an honest error — within
  // the overall query timeout.
  cluster.nodeContext().post(cluster.adminId(), [&cluster, &state] {
    const int64_t at = cluster.admin().clock().tick().l + 5;
    cluster.admin().doQuery(
        "COUNT WHERE key PREFIX 'key-' OVER [" + std::to_string(at) + ", " +
            std::to_string(at) + "] STEP 1",
        [&state](const QueryOutcome&) {
          state.queryDone.store(true, std::memory_order_release);
        });
  });
  EXPECT_TRUE(runtime::waitForCondition(
      [&] { return state.queryDone.load(std::memory_order_acquire); }))
      << "distributed query never settled under chaos";

  cluster.stop();         // joins all workers; state safely readable below
  loop->issue = nullptr;  // break the ChaosLoop self-reference cycle
  if (transportCounters != nullptr) {
    *transportCounters = formatTransportCounters(cluster.udpTransport());
  }
  if (transport == TransportKind::kUdpLoopback) {
    // The run must have actually exercised the wire: real datagrams
    // flowed, and the injected kernel-path loss forced retransmissions
    // that the reliability layer absorbed.
    ASSERT_NE(cluster.udpTransport(), nullptr);
    EXPECT_GT(cluster.udpTransport()->datagramsReceived(), 0u)
        << "UDP loopback carried no traffic — transport selection broken";
  }

  // Obligation 2: resolved means resolved — kComplete or kPartial.
  ASSERT_EQ(state.snapshotStates.size(), sc.snapshots.size());
  for (const auto snapState : state.snapshotStates) {
    EXPECT_TRUE(snapState == core::GlobalSnapshotState::kComplete ||
                snapState == core::GlobalSnapshotState::kPartial);
  }

  // Obligation 3: no inconsistent cut, ever.  Completed snapshot targets
  // and random probes re-derived from the trace must all pass the
  // adversarial checker; monotonicity always holds; the skew bound only
  // binds when the script injected no clock anomalies.
  testing::CutChecker checker(cluster.trace()->recorder());
  testing::CheckReport report;
  for (const hlc::Timestamp& target : state.completedTargets) {
    checker.checkCutAt(target, report);
  }
  checker.checkRandomProbes(seed, 6, report);
  checker.checkMonotonicity(report);
  if (!sc.clockAnomalies) {
    checker.checkSkewBound(kMaxSkewMillis * kMicrosPerMilli, report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(RealtimeChaos, ChaosSweepSnapshotsDegradeHonestly) {
  const int seeds = testing::seedCountFromEnv("RETRO_CHAOS_SEEDS", 128);
  const auto pinned = testing::seedOverrideFromEnv();
  int ran = 0;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = pinned ? *pinned : static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    runChaosSeed(seed, TransportKind::kInProcess);
    if (::testing::Test::HasFailure()) {
      writeChaosArtifact(seed,
                         "chaos sweep failed (full diagnosis in the test log)");
      break;
    }
    ++ran;
    if (pinned) break;  // reproduction mode: one seed only
  }
  EXPECT_GE(ran, 1);
}

// The same sweep over real UDP sockets: every fault script, obligation,
// and cut check is identical — only the wire changed.  RETRO_CHAOS_SEEDS
// scales this sweep too; RETRO_FUZZ_SEED pins one seed for reproduction.
TEST(RealtimeChaos, UdpChaosSweepSnapshotsDegradeHonestly) {
  const int seeds = testing::seedCountFromEnv("RETRO_CHAOS_SEEDS", 128);
  const auto pinned = testing::seedOverrideFromEnv();
  int ran = 0;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = pinned ? *pinned : static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed) + " (udp)");
    std::string transportCounters;
    runChaosSeed(seed, TransportKind::kUdpLoopback, &transportCounters);
    if (::testing::Test::HasFailure()) {
      writeChaosArtifact(seed, "udp chaos sweep failed (full diagnosis in the "
                               "test log)\n" +
                                   transportCounters);
      break;
    }
    ++ran;
    if (pinned) break;  // reproduction mode: one seed only
  }
  EXPECT_GE(ran, 1);
}

// ---------------------------------------------------------------------------
// Test 2: sim vs realtime under the identical lossless fault script.
// ---------------------------------------------------------------------------

constexpr size_t kDiffKeysPerClient = 10;
constexpr int kDiffOpsPerClient = 20;

struct DiffOp {
  Key key;
  Value value;
};

std::vector<std::vector<DiffOp>> makeDiffWorkload(uint64_t seed,
                                                  size_t clients) {
  std::vector<std::vector<DiffOp>> ops(clients);
  for (size_t c = 0; c < clients; ++c) {
    SplitMix64 rng(seed * 7919 + c);
    for (int i = 0; i < kDiffOpsPerClient; ++i) {
      const uint64_t keyIdx = c * 1'000 + rng.next() % kDiffKeysPerClient;
      ops[c].push_back(
          {VoldemortCluster::keyOf(keyIdx),
           std::to_string(c * 1'000'000 + static_cast<uint64_t>(i))});
    }
  }
  return ops;
}

/// Keep only fault kinds under which exact sim/real agreement is still a
/// theorem: latency spikes and node stalls delay messages but never
/// lose, duplicate, or misorder them.
testing::Scenario losslessScript(uint64_t seed) {
  testing::Scenario s =
      testing::generateScenario(seed, testing::Substrate::kKvStore, {});
  std::vector<testing::FaultEvent> kept;
  for (const testing::FaultEvent& f : s.faults) {
    if (f.kind == testing::FaultKind::kLatencySpike ||
        f.kind == testing::FaultKind::kNodeStall) {
      kept.push_back(f);
    }
  }
  s.faults = std::move(kept);
  s.baseDropProbability = 0;  // lossless by construction
  return s;
}

struct DiffOutcome {
  std::vector<std::map<Key, Value>> perServer;
  bool snapshotComplete = false;
  bool queryOk = false;
  uint64_t queryMatched = 0;
  double queryValue = 0;
};

/// Same closed-loop driver shape as test_realtime_differential: puts
/// only, snapshot kicked off by client 0 halfway, final-state SUM query.
struct DiffDriver {
  const std::vector<std::vector<DiffOp>>& ops;
  std::vector<size_t> nextOp;
  std::atomic<int> opsDone{0};
  std::atomic<bool> snapshotRequested{false};
  std::atomic<bool> snapshotDone{false};
  std::atomic<bool> snapshotComplete{false};
  hlc::Timestamp snapshotTarget;  // written on the admin thread before
                                  // snapshotDone is set (acquire pairs)
  std::atomic<bool> queryDone{false};
  QueryOutcome queryOutcome;  // same publication discipline
  /// Delay between a client's ops, so the op stream spans the scenario's
  /// fault windows instead of finishing before the first one opens.
  /// Expressed in each runtime's own time base (virtual vs scaled real);
  /// pacing is timing-only, so lossless exactness is unaffected.
  TimeMicros pace = 0;

  explicit DiffDriver(const std::vector<std::vector<DiffOp>>& workload)
      : ops(workload), nextOp(workload.size(), 0) {}

  int totalOps() const {
    int total = 0;
    for (const auto& seq : ops) total += static_cast<int>(seq.size());
    return total;
  }

  template <typename Cluster>
  void pump(Cluster& cluster, size_t c) {
    if (nextOp[c] >= ops[c].size()) return;
    const DiffOp& op = ops[c][nextOp[c]++];
    cluster.client(c).put(
        op.key, op.value, [this, &cluster, c](bool ok, TimeMicros) {
          ASSERT_TRUE(ok) << "client " << c << " put failed (lossless run)";
          opsDone.fetch_add(1);
          if (c == 0 && nextOp[c] == ops[c].size() / 2 &&
              !snapshotRequested.exchange(true)) {
            cluster.context().post(cluster.adminId(), [this, &cluster] {
              cluster.admin().snapshotNow(
                  [this](const core::SnapshotSession& s) {
                    snapshotTarget = s.request().target;
                    snapshotComplete.store(
                        s.state() == core::GlobalSnapshotState::kComplete);
                    snapshotDone.store(true, std::memory_order_release);
                  });
            });
          }
          if (pace > 0) {
            cluster.context().schedule(cluster.clientId(c), pace,
                                       [this, &cluster, c] { pump(cluster, c); });
          } else {
            pump(cluster, c);
          }
        });
  }

  template <typename Cluster>
  void runQuery(Cluster& cluster) {
    cluster.context().post(cluster.adminId(), [this, &cluster] {
      const int64_t atMillis = cluster.admin().clock().tick().l + 10;
      cluster.admin().doQuery(
          "SUM WHERE key PREFIX 'key-' OVER [" + std::to_string(atMillis) +
              ", " + std::to_string(atMillis) + "] STEP 1",
          [this](const QueryOutcome& outcome) {
            queryOutcome = outcome;
            queryDone.store(true, std::memory_order_release);
          });
    });
  }

  void fill(DiffOutcome& out) const {
    out.snapshotComplete = snapshotComplete.load();
    out.queryOk = queryOutcome.status.isOk();
    if (out.queryOk && queryOutcome.result.series.size() == 1) {
      const auto& r = queryOutcome.result.series[0].second;
      out.queryMatched = r.matched;
      out.queryValue = r.value;
    }
  }
};

ClientConfig losslessClientConfig() {
  ClientConfig cfg;
  cfg.replicas = 2;
  cfg.requiredWrites = 2;  // == replicas: a completed put is everywhere
  cfg.requiredReads = 1;
  return cfg;
}

template <typename Cluster>
std::vector<std::map<Key, Value>> collectState(Cluster& cluster,
                                               size_t servers) {
  std::vector<std::map<Key, Value>> state;
  for (size_t i = 0; i < servers; ++i) {
    const auto& data = cluster.server(i).bdb().data();
    state.emplace_back(data.begin(), data.end());
  }
  return state;
}

DiffOutcome runLosslessSim(const testing::Scenario& sc,
                           const std::vector<std::vector<DiffOp>>& ops) {
  ClusterConfig cfg;
  cfg.servers = sc.servers;
  cfg.clients = sc.clients;
  cfg.seed = sc.seed;
  cfg.ringVirtualNodes = 32;
  cfg.client = losslessClientConfig();
  cfg.server.putServiceMicros = 50;
  cfg.server.getServiceMicros = 30;
  VoldemortCluster cluster(cfg);

  testing::FaultHooks hooks;
  hooks.clockOf = [&cluster](NodeId n) -> sim::SkewedClock& {
    return cluster.clockOf(n);
  };
  testing::scheduleFaults(cluster.env(), cluster.network(), hooks, sc);

  DiffDriver driver(ops);
  driver.pace = sc.durationMicros / (kDiffOpsPerClient + 1);
  for (size_t c = 0; c < sc.clients; ++c) driver.pump(cluster, c);
  cluster.env().run();
  EXPECT_EQ(driver.opsDone.load(), driver.totalOps());
  EXPECT_TRUE(driver.snapshotDone.load());

  driver.runQuery(cluster);
  cluster.env().run();
  EXPECT_TRUE(driver.queryDone.load());

  DiffOutcome out;
  driver.fill(out);
  out.perServer = collectState(cluster, sc.servers);
  return out;
}

DiffOutcome runLosslessRealtime(const testing::Scenario& sc,
                                const std::vector<std::vector<DiffOp>>& ops,
                                TransportKind transport) {
  DiffDriver driver(ops);  // before the cluster: its threads call into it
  driver.pace = static_cast<TimeMicros>(
      static_cast<double>(sc.durationMicros / (kDiffOpsPerClient + 1)) *
      kTimeScale);

  RealtimeClusterConfig cfg;
  cfg.servers = sc.servers;
  cfg.clients = sc.clients;
  cfg.seed = sc.seed;
  cfg.ringVirtualNodes = 32;
  cfg.maxSkewMillis = kMaxSkewMillis;
  cfg.enableFaultPlane = true;  // lossless plane: script-driven
                                // latency/stalls only, zero probabilities
  cfg.faultPlane.seed = sc.seed;
  cfg.client = losslessClientConfig();
  cfg.transport = transport;
  if (transport == TransportKind::kUdpLoopback) {
    // Kernel-path datagram loss the reliability layer must fully mask:
    // the script is lossless ABOVE the transport, so byte-exact
    // agreement with the simulator stays a theorem only if retransmit +
    // dedup turn the lossy wire into an exactly-once channel.
    cfg.udp.datagramLossProbability = 0.05;
    cfg.udp.lossSeed = sc.seed;
  }
  RealtimeKvCluster cluster(cfg);
  cluster.enableCausalityTrace();

  testing::RealtimeFaultHooks hooks;  // no skew/crash in a lossless script
  testing::scheduleRealtimeFaults(*cluster.faultPlane(), cluster.controllerId(),
                                  hooks, sc, kTimeScale);

  cluster.start();
  for (size_t c = 0; c < sc.clients; ++c) {
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

  DiffOutcome out;
  driver.fill(out);
  out.perServer = collectState(cluster, sc.servers);

  testing::CutChecker checker(cluster.trace()->recorder());
  testing::CheckReport report;
  checker.checkCutAt(driver.snapshotTarget, report);
  checker.checkRandomProbes(sc.seed, 6, report);
  checker.checkMonotonicity(report);
  checker.checkSkewBound(kMaxSkewMillis * kMicrosPerMilli, report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.cutsChecked, 0u);
  return out;
}

void compareLossless(const DiffOutcome& sim, const DiffOutcome& real) {
  ASSERT_EQ(sim.perServer.size(), real.perServer.size());
  for (size_t i = 0; i < sim.perServer.size(); ++i) {
    EXPECT_EQ(sim.perServer[i], real.perServer[i]) << "server " << i;
  }
  EXPECT_TRUE(sim.snapshotComplete);
  EXPECT_TRUE(real.snapshotComplete);
  ASSERT_TRUE(sim.queryOk);
  ASSERT_TRUE(real.queryOk);
  EXPECT_EQ(sim.queryMatched, real.queryMatched);
  EXPECT_EQ(sim.queryValue, real.queryValue);
  EXPECT_GT(sim.queryMatched, 0u);
}

TEST(RealtimeChaos, LosslessFaultScriptDifferential) {
  const int seeds = testing::seedCountFromEnv("RETRO_CHAOS_DIFF_SEEDS", 8);
  const auto pinned = testing::seedOverrideFromEnv();
  int ran = 0;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = pinned ? *pinned : static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const testing::Scenario sc = losslessScript(seed);
    SCOPED_TRACE(testing::describeScenario(sc));
    const auto ops = makeDiffWorkload(seed, sc.clients);

    const DiffOutcome sim = runLosslessSim(sc, ops);
    {
      SCOPED_TRACE("transport inproc");
      const DiffOutcome real =
          runLosslessRealtime(sc, ops, TransportKind::kInProcess);
      compareLossless(sim, real);
    }
    {
      SCOPED_TRACE("transport udp");
      const DiffOutcome udp =
          runLosslessRealtime(sc, ops, TransportKind::kUdpLoopback);
      compareLossless(sim, udp);
    }

    if (::testing::Test::HasFailure()) {
      writeChaosArtifact(seed, "lossless sim-vs-real differential diverged");
      break;
    }
    ++ran;
    if (pinned) break;
  }
  EXPECT_GE(ran, 1);
}

// ---------------------------------------------------------------------------
// Test 3: crash/restart recovery on the realtime runtime.
// ---------------------------------------------------------------------------

TEST(RealtimeChaos, CrashRestartRecoversDurableState) {
  const uint64_t seed = 42;
  constexpr int kPhase1 = 12;
  constexpr int kPhase2 = 12;

  // State + recursive closures declared before the cluster (see Test 1).
  std::atomic<int> putsDone{0};
  std::atomic<int> putsOk{0};
  std::atomic<int> phase2Done{0};
  std::atomic<bool> recovered{false};
  std::atomic<bool> snapDone{false};
  std::atomic<bool> snapComplete{false};
  std::function<void(int)> phase1;
  std::function<void(int)> phase2;

  RealtimeClusterConfig cfg;
  cfg.servers = 3;
  cfg.clients = 1;
  cfg.seed = seed;
  cfg.ringVirtualNodes = 32;
  cfg.maxSkewMillis = kMaxSkewMillis;
  cfg.enableFaultPlane = true;  // clean plane: exercises the passthrough
  cfg.faultPlane.seed = seed;
  hardenConfigs(cfg);
  // Phase 1 writes must land on every replica so the crash victim holds
  // durable copies of everything completed before it dies.
  cfg.client.requiredWrites = 2;
  RealtimeKvCluster cluster(cfg);
  cluster.enableCausalityTrace();
  cluster.start();

  // Phase 1: closed-loop puts against a healthy cluster.
  phase1 = [&](int i) {
    if (i >= kPhase1) return;
    cluster.client(0).put(RealtimeKvCluster::keyOf(static_cast<uint64_t>(i)),
                          "pre-crash-" + std::to_string(i),
                          [&, i](bool ok, TimeMicros) {
                            if (ok) putsOk.fetch_add(1);
                            putsDone.fetch_add(1);
                            phase1(i + 1);
                          });
  };
  cluster.nodeContext().post(cluster.clientId(0), [&] { phase1(0); });
  ASSERT_TRUE(
      runtime::waitForCondition([&] { return putsDone.load() == kPhase1; }));
  ASSERT_EQ(putsOk.load(), kPhase1);

  // Crash server 1, keep writing through the outage (the survivors
  // absorb what they can; failures are honest), then restart it.
  cluster.crashServer(1);
  phase2 = [&](int i) {
    if (i >= kPhase2) return;
    cluster.client(0).put(
        RealtimeKvCluster::keyOf(static_cast<uint64_t>(100 + i)),
        "mid-outage-" + std::to_string(i), [&, i](bool, TimeMicros) {
          phase2Done.fetch_add(1);
          phase2(i + 1);
        });
  };
  cluster.nodeContext().post(cluster.clientId(0), [&] { phase2(0); });
  EXPECT_TRUE(
      runtime::waitForCondition([&] { return phase2Done.load() == kPhase2; }));

  cluster.nodeContext().post(cluster.serverId(1), [&] {
    cluster.server(1).restart([&] { recovered.store(true); });
  });
  ASSERT_TRUE(runtime::waitForCondition([&] { return recovered.load(); }))
      << "server 1 never finished WAL/BDB recovery";

  // Post-recovery snapshot must settle; with every node back it should
  // complete outright.
  cluster.nodeContext().post(cluster.adminId(), [&] {
    cluster.admin().snapshotNow([&](const core::SnapshotSession& s) {
      snapComplete.store(s.state() == core::GlobalSnapshotState::kComplete);
      snapDone.store(true, std::memory_order_release);
    });
  });
  ASSERT_TRUE(runtime::waitForCondition(
      [&] { return snapDone.load(std::memory_order_acquire); }));
  EXPECT_TRUE(snapComplete.load());

  cluster.stop();

  // Recovery parity: every phase-1 completed write (requiredWrites ==
  // replicas) must be present on the restarted server wherever it
  // replicates the key — the WAL/BDB recovery path may not lose it.
  size_t checkedOnVictim = 0;
  for (int i = 0; i < kPhase1; ++i) {
    const Key key = RealtimeKvCluster::keyOf(static_cast<uint64_t>(i));
    for (NodeId r : cluster.ring().preferenceList(key, 2)) {
      if (r != cluster.serverId(1)) continue;
      const auto& data = cluster.server(1).bdb().data();
      const auto it = data.find(key);
      ASSERT_NE(it, data.end()) << "key " << key << " lost in recovery";
      EXPECT_EQ(it->second, "pre-crash-" + std::to_string(i));
      ++checkedOnVictim;
    }
  }
  EXPECT_GT(checkedOnVictim, 0u) << "victim replicated none of the keys "
                                    "(ring layout made the test vacuous)";

  // The whole run — including the crash window — must still produce
  // consistent, monotone cuts.
  testing::CutChecker checker(cluster.trace()->recorder());
  testing::CheckReport report;
  checker.checkRandomProbes(seed, 6, report);
  checker.checkMonotonicity(report);
  checker.checkSkewBound(kMaxSkewMillis * kMicrosPerMilli, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Chaos-plane regressions: unit-level pins for FaultfulContext fault
// semantics, against a recording inner context (no threads, every
// deferred delivery is a closure the test fires by hand).
// ---------------------------------------------------------------------------

/// Inner ExecutionContext fake: records schedules and sends instead of
/// executing them, so a test can inspect delays and fire closures at
/// chosen points (e.g. after installing a partition).
struct RecordingContext final : runtime::ExecutionContext {
  struct Deferred {
    NodeId owner;
    TimeMicros delay;
    std::function<void()> fn;
  };
  std::vector<Deferred> scheduled;
  std::vector<runtime::Message> sent;
  std::set<NodeId> nodes;

  TimeMicros now() const override { return 0; }
  void schedule(NodeId owner, TimeMicros delay,
                std::function<void()> fn) override {
    scheduled.push_back({owner, delay, std::move(fn)});
  }
  void scheduleDaemon(NodeId owner, TimeMicros delay,
                      std::function<void()> fn) override {
    scheduled.push_back({owner, delay, std::move(fn)});
  }
  void registerNode(NodeId node, Handler) override { nodes.insert(node); }
  void disconnect(NodeId node) override { nodes.erase(node); }
  bool isConnected(NodeId node) const override {
    return nodes.count(node) != 0;
  }
  uint64_t send(runtime::Message message) override {
    const uint64_t id = message.msgId;
    sent.push_back(std::move(message));
    return id;
  }
  bool isRealtime() const override { return false; }
};

// A duplicate's extra delay is drawn independently of the primary's, so
// a duplicate of a reordered message can arrive BEFORE the original —
// the arrival order real networks produce.  (Regression: duplicates
// used to stack their delay ON TOP of the primary's, so the copy could
// never win the race.)
TEST(ChaosPlaneRegression, DuplicateDelayIsIndependentOfPrimary) {
  RecordingContext rec;
  runtime::FaultPlaneConfig pc;
  pc.seed = 99;
  pc.duplicateProbability = 1.0;
  pc.reorderProbability = 1.0;
  pc.reorderDelayMaxMicros = 5'000;
  runtime::FaultfulContext plane(rec, pc);
  plane.registerNode(2, [](runtime::Message&&) {});

  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    plane.send({/*from=*/1, /*to=*/2, /*type=*/7,
                /*payload=*/"p" + std::to_string(i)});
  }
  // Every send defers two copies (reorder always hits, so both delays
  // are >= 1): the duplicate is scheduled first, then the primary.
  ASSERT_EQ(plane.duplicatesInjected(), static_cast<uint64_t>(kMessages));
  ASSERT_EQ(rec.scheduled.size(), static_cast<size_t>(2 * kMessages));
  int dupWins = 0;
  for (int i = 0; i < kMessages; ++i) {
    const TimeMicros dupDelay = rec.scheduled[2 * i].delay;
    const TimeMicros primaryDelay = rec.scheduled[2 * i + 1].delay;
    EXPECT_GE(dupDelay, 1);
    EXPECT_GE(primaryDelay, 1);
    if (dupDelay < primaryDelay) ++dupWins;
  }
  // Independent draws: the duplicate beats the primary sometimes but
  // not always.  The old (stacked) derivation made dupWins exactly 0.
  EXPECT_GT(dupWins, 0);
  EXPECT_LT(dupWins, kMessages);

  // Both copies still carry the same msgId once they hit the wire.
  for (auto& d : rec.scheduled) d.fn();
  ASSERT_EQ(rec.sent.size(), static_cast<size_t>(2 * kMessages));
  std::map<uint64_t, int> byId;
  for (const auto& m : rec.sent) ++byId[m.msgId];
  for (const auto& [id, count] : byId) EXPECT_EQ(count, 2) << "msgId " << id;
}

// A delayed delivery whose link is cut while it sits on the timer heap
// dies at the cut like any in-flight packet; one healed before the
// timer fires is delivered.  (Regression: deferred deliveries used to
// check partitions only at send time.)
TEST(ChaosPlaneRegression, DeferredDeliveryRechecksPartitionAtFireTime) {
  RecordingContext rec;
  runtime::FaultPlaneConfig pc;
  pc.seed = 7;
  pc.extraLatencyMicros = 1'000;  // defer every delivery
  runtime::FaultfulContext plane(rec, pc);
  plane.registerNode(2, [](runtime::Message&&) {});

  // Cut installed while the message is in flight: it must die.
  plane.send({1, 2, 7, "in-flight-at-cut"});
  ASSERT_EQ(rec.scheduled.size(), 1u);
  EXPECT_TRUE(rec.sent.empty());
  plane.isolate(1);
  rec.scheduled[0].fn();
  EXPECT_TRUE(rec.sent.empty());
  EXPECT_EQ(plane.partitionDrops(), 1u);

  // Cut healed before the timer fires: normal delivery.
  plane.heal(1);
  plane.send({1, 2, 7, "healed-before-fire"});
  ASSERT_EQ(rec.scheduled.size(), 2u);
  plane.isolate(1);
  plane.heal(1);
  rec.scheduled[1].fn();
  ASSERT_EQ(rec.sent.size(), 1u);
  EXPECT_EQ(rec.sent[0].payload, "healed-before-fire");
  EXPECT_EQ(plane.partitionDrops(), 1u);
}

// Overlapping pause windows from independent script clauses union: the
// worker runs again only after EVERY window has been resumed.
// (Regression: a second pauseNode used to be swallowed by the set
// insert, so the first resumeNode unparked the node early.)
TEST(ChaosPlaneRegression, OverlappingPausesAreCounted) {
  runtime::RealtimeContext ctx;
  runtime::FaultfulContext plane(ctx, {});
  std::atomic<int> ran{0};
  plane.registerNode(1, [](runtime::Message&&) {});
  ctx.start();

  plane.pauseNode(1);   // window A parks the worker
  plane.pauseNode(1);   // window B overlaps
  plane.resumeNode(1);  // window A closes; B still holds the node
  // The probe's deadline is strictly after the park closure's, so it
  // queues behind the park regardless of timer tie-breaking.
  plane.schedule(1, 2'000, [&ran] { ran.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(ran.load(), 0) << "node ran while an overlapping pause was open";

  plane.resumeNode(1);  // window B closes: the node is live again
  EXPECT_TRUE(runtime::waitForCondition([&] { return ran.load() == 1; }));
  plane.resumeNode(1);  // resume of an un-paused node: a no-op

  plane.release();
  ctx.stop();
}

}  // namespace
}  // namespace retro::kv
