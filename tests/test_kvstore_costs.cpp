// The simulator's price list, pinned.  A seeded 3-server cluster with the
// archive on runs puts and gets, takes a full, an incremental, a rolling
// and an archive-reaching full snapshot, answers a temporal query, and
// crashes and restarts a server.  Every modelled charge a server makes
// lands in its executor's busy time, its disk's byte counts or the sim
// time at which a snapshot or query resolves, so a change that moves any
// charge by a microsecond fails here.  The heap model's GC slowdown and
// coupling are on, so the memory model is priced too.
//
// The heap model runs only under the simulator: there a one-byte heap
// limit kills a server on its first put, once; a realtime server with the
// same limit serves puts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>

#include "kvstore/cluster.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "runtime/deadline.hpp"
#include "workload/driver.hpp"

namespace retro::kv {
namespace {

std::vector<workload::ClientHandle> handlesOf(VoldemortCluster& cluster) {
  std::vector<workload::ClientHandle> handles;
  for (size_t i = 0; i < cluster.clientCount(); ++i) {
    VoldemortClient* c = &cluster.client(i);
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
  return handles;
}

struct ServerCharges {
  TimeMicros busyMicros;
  uint64_t bytesRead;
  uint64_t bytesWritten;
};

template <size_t N>
void expectCharges(VoldemortCluster& cluster,
                   const std::array<ServerCharges, N>& expected) {
  for (size_t s = 0; s < N; ++s) {
    VoldemortServer& server = cluster.server(s);
    EXPECT_EQ(server.executor().totalBusyMicros(), expected[s].busyMicros)
        << "server " << s;
    EXPECT_EQ(server.disk().bytesRead(), expected[s].bytesRead)
        << "server " << s;
    EXPECT_EQ(server.disk().bytesWritten(), expected[s].bytesWritten)
        << "server " << s;
  }
}

TEST(KvCosts, SimulatorChargesStayPinned) {
  ClusterConfig cfg;
  cfg.servers = 3;
  cfg.clients = 3;
  cfg.seed = 17;
  cfg.server.logConfig.maxBytes = 0;
  cfg.server.archive.enabled = true;
  cfg.server.archive.periodMicros = 500'000;
  cfg.server.archive.keepInMemoryMillis = 2000;
  // A heap past the GC threshold: puts pay the coupling, and every task
  // the slowdown.
  cfg.server.memory.heapLimitBytes = 256ull << 20;
  cfg.server.logGcCouplingMicros = 3;
  VoldemortCluster cluster(cfg);
  cluster.preload(600, 40);
  workload::DriverConfig dcfg;
  dcfg.workload.writeFraction = 0.5;
  dcfg.workload.keySpace = 600;
  dcfg.workload.valueBytes = 40;
  workload::ClosedLoopDriver driver(cluster.env(), handlesOf(cluster),
                                    VoldemortCluster::keyOf, dcfg);
  driver.start(7 * kMicrosPerSecond);

  AdminClient& admin = cluster.admin();
  sim::SimEnv& env = cluster.env();
  // Sim time at which each snapshot (full, incremental, full, rolling,
  // archive-reaching full) and the query resolved.
  std::array<TimeMicros, 6> resolvedAt{};
  std::array<core::GlobalSnapshotState, 5> states{};
  const auto record = [&](size_t i) {
    return [&, i](const core::SnapshotSession& s) {
      resolvedAt[i] = env.now();
      states[i] = s.state();
    };
  };
  core::SnapshotId fullId = 0;
  core::SnapshotId rollBaseId = 0;
  env.scheduleAt(2'500'000, [&] { fullId = admin.snapshotNow(record(0)); });
  env.scheduleAt(3'000'000, [&] {
    admin.doSnapshot(admin.clock().tick(), core::SnapshotKind::kIncremental,
                     fullId, record(1));
  });
  env.scheduleAt(3'500'000,
                 [&] { rollBaseId = admin.snapshotNow(record(2)); });
  env.scheduleAt(4'200'000, [&] {
    admin.doSnapshot(admin.clock().tick(), core::SnapshotKind::kRolling,
                     rollBaseId, record(3));
  });
  core::SnapshotId deepId = 0;
  env.scheduleAt(5'000'000,
                 [&] { deepId = admin.snapshotPast(3000, record(4)); });
  bool queryOk = false;
  env.scheduleAt(5'500'000, [&] {
    const int64_t now = admin.clock().tick().l;
    admin.doQuery("COUNT OVER [" + std::to_string(now - 1500) + ", " +
                      std::to_string(now - 500) + "] STEP 250",
                  [&](const QueryOutcome& out) {
                    resolvedAt[5] = env.now();
                    queryOk = out.status.isOk();
                  });
  });
  env.scheduleAt(6'000'000, [&] { cluster.server(1).crash(); });
  env.scheduleAt(6'300'000, [&] { cluster.server(1).restart(); });
  env.run();

  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(states[i], core::GlobalSnapshotState::kComplete) << "snapshot "
                                                               << i;
  }
  EXPECT_TRUE(queryOk);
  EXPECT_TRUE(cluster.server(1).isAlive());
  // The deep snapshot reached below every live window.
  const hlc::Timestamp deepTarget = admin.findSession(deepId)->request().target;
  for (size_t s = 0; s < cluster.serverCount(); ++s) {
    EXPECT_FALSE(cluster.server(s)
                     .retroscope()
                     .getLog(VoldemortServer::kStoreLog)
                     .covers(deepTarget))
        << "server " << s;
  }

  constexpr std::array<TimeMicros, 6> kResolvedAt = {
      2'511'642, 3'006'584, 3'511'356, 4'208'593, 5'024'123, 5'511'359};
  constexpr std::array<ServerCharges, 3> kCharges = {{
      {3'523'606, 838'518, 1'781'910},
      {4'050'908, 1'336'576, 1'657'822},
      {3'658'751, 874'370, 1'868'060},
  }};
  for (size_t i = 0; i < kResolvedAt.size(); ++i) {
    EXPECT_EQ(resolvedAt[i], kResolvedAt[i]) << "resolution " << i;
  }
  expectCharges(cluster, kCharges);
}

// A spare joins under load: the key-range streams price each received
// chunk by its item count, which the test above never exercises.
TEST(KvCosts, TransferChargesStayPinned) {
  ClusterConfig cfg;
  cfg.servers = 3;
  cfg.spareServers = 1;
  cfg.clients = 2;
  cfg.seed = 29;
  cfg.server.membership.enabled = true;
  VoldemortCluster cluster(cfg);
  cluster.preload(400, 40);
  workload::DriverConfig dcfg;
  dcfg.workload.writeFraction = 0.5;
  dcfg.workload.keySpace = 400;
  dcfg.workload.valueBytes = 40;
  workload::ClosedLoopDriver driver(cluster.env(), handlesOf(cluster),
                                    VoldemortCluster::keyOf, dcfg);
  driver.start(4 * kMicrosPerSecond);
  cluster.env().scheduleAt(1'500'000, [&] { cluster.joinServer(3, 0); });
  cluster.env().run();

  const Counters& joiner = cluster.server(3).membershipCounters();
  EXPECT_EQ(joiner.get("membership.joins_completed"), 1u);
  EXPECT_GT(joiner.get("membership.keys_received"), 0u);
  constexpr std::array<ServerCharges, 4> kCharges = {{
      {484'298, 0, 443'484},
      {652'550, 0, 567'690},
      {535'374, 0, 497'078},
      {310'694, 0, 355'341},
  }};
  expectCharges(cluster, kCharges);
}

TEST(KvCosts, SimulatedServerRunsOutOfHeapOnce) {
  ClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  cfg.client.replicas = 1;
  cfg.client.requiredWrites = 1;
  cfg.server.memory.heapLimitBytes = 1;
  VoldemortCluster cluster(cfg);
  cluster.client(0).put("k", "v", [](bool, TimeMicros) {});
  cluster.env().run();
  VoldemortServer& server = cluster.server(0);
  EXPECT_FALSE(server.isAlive());  // the first put ran the heap out
  // The heap stays exhausted, but a restart is not killed again.
  server.restart();
  cluster.env().run();
  EXPECT_TRUE(server.isAlive());
  EXPECT_EQ(server.recoveries(), 1u);
}

TEST(KvCosts, RealtimeServerIgnoresTheModelledHeap) {
  RealtimeClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  cfg.client.replicas = 1;
  cfg.client.requiredWrites = 1;
  cfg.server.memory.heapLimitBytes = 1;
  RealtimeKvCluster cluster(cfg);
  cluster.start();
  std::atomic<int> putResult{0};
  cluster.context().post(cluster.clientId(0), [&] {
    cluster.client(0).put("k", "v", [&](bool ok, TimeMicros) {
      putResult.store(ok ? 1 : 2);
    });
  });
  const bool resolved =
      runtime::waitForCondition([&] { return putResult.load() != 0; });
  cluster.stop();
  EXPECT_TRUE(resolved);
  EXPECT_EQ(putResult.load(), 1);
  EXPECT_TRUE(cluster.server(0).isAlive());
}

}  // namespace
}  // namespace retro::kv
