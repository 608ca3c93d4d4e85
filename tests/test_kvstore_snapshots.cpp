// End-to-end snapshot correctness for the Voldemort substrate.  The
// oracle is an independent *forward* replay: preloaded state plus every
// window-log entry with ts <= target, applied oldest-first.  The
// snapshot machinery reconstructs the same state *backward* (capture at
// Tr, undo down to the target), so agreement exercises both directions.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "kvstore/cluster.hpp"
#include "workload/driver.hpp"

namespace retro::kv {
namespace {

ClusterConfig snapConfig(uint64_t seed = 3) {
  ClusterConfig cfg;
  cfg.servers = 4;
  cfg.clients = 4;
  cfg.seed = seed;
  cfg.server.logConfig.maxBytes = 0;  // unbounded: oracle needs full history
  cfg.server.bdb.cleanerEnabled = false;
  return cfg;
}

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

std::unordered_map<Key, Value> oracleStateAt(
    VoldemortServer& server, const std::unordered_map<Key, Value>& initial,
    hlc::Timestamp target) {
  auto state = initial;
  server.retroscope().getLog(VoldemortServer::kStoreLog).forEach(
      [&](const log::Entry& e) {
        if (e.ts > target) return;
        if (e.newValue) {
          state[e.key] = *e.newValue;
        } else {
          state.erase(e.key);
        }
      });
  return state;
}

struct Testbed {
  explicit Testbed(ClusterConfig cfg, double writeFraction = 1.0,
                   workload::KeyDistribution dist =
                       workload::KeyDistribution::kUniform)
      : cluster(cfg) {
    cluster.preload(2000, 40);
    for (size_t s = 0; s < cluster.serverCount(); ++s) {
      initialStates.push_back(cluster.server(s).bdb().data());
    }
    workload::DriverConfig dcfg;
    dcfg.workload.writeFraction = writeFraction;
    dcfg.workload.keySpace = 2000;
    dcfg.workload.valueBytes = 40;
    dcfg.workload.distribution = dist;
    driver = std::make_unique<workload::ClosedLoopDriver>(
        cluster.env(), handlesOf(cluster), VoldemortCluster::keyOf, dcfg);
  }

  void verifySnapshotMatchesOracle(core::SnapshotId id,
                                   hlc::Timestamp target) {
    for (size_t s = 0; s < cluster.serverCount(); ++s) {
      auto& server = cluster.server(s);
      auto materialized = server.snapshots().materialize(id);
      ASSERT_TRUE(materialized.isOk())
          << "server " << s << ": " << materialized.status().toString();
      const auto expected = oracleStateAt(server, initialStates[s], target);
      EXPECT_EQ(materialized.value(), expected) << "server " << s;
    }
  }

  VoldemortCluster cluster;
  std::vector<std::unordered_map<Key, Value>> initialStates;
  std::unique_ptr<workload::ClosedLoopDriver> driver;
};

TEST(KvSnapshots, InstantSnapshotMatchesOracle) {
  Testbed bed{snapConfig()};
  bed.driver->start(4 * kMicrosPerSecond);

  core::SnapshotId snapId = 0;
  hlc::Timestamp target;
  bool complete = false;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    snapId = bed.cluster.admin().snapshotNow(
        [&](const core::SnapshotSession& s) {
          complete = s.state() == core::GlobalSnapshotState::kComplete;
        });
    target = bed.cluster.admin().findSession(snapId)->request().target;
  });
  bed.cluster.env().run();

  ASSERT_TRUE(complete);
  bed.verifySnapshotMatchesOracle(snapId, target);
}

TEST(KvSnapshots, RetrospectiveSnapshotMatchesOracle) {
  Testbed bed{snapConfig(5)};
  bed.driver->start(4 * kMicrosPerSecond);

  core::SnapshotId snapId = 0;
  hlc::Timestamp target;
  bool complete = false;
  // At t=3s, snapshot the state as of ~1.5s earlier.
  bed.cluster.env().scheduleAt(3 * kMicrosPerSecond, [&] {
    snapId = bed.cluster.admin().snapshotPast(
        1500, [&](const core::SnapshotSession& s) {
          complete = s.state() == core::GlobalSnapshotState::kComplete;
        });
    target = bed.cluster.admin().findSession(snapId)->request().target;
  });
  bed.cluster.env().run();

  ASSERT_TRUE(complete);
  bed.verifySnapshotMatchesOracle(snapId, target);
}

TEST(KvSnapshots, SnapshotDuringLiveTrafficIsStableAtTarget) {
  // The snapshot is taken while writes continue; the result must match
  // the oracle at the *target* time, unaffected by later traffic.
  Testbed bed{snapConfig(7)};
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId snapId = 0;
  hlc::Timestamp target;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    snapId = bed.cluster.admin().snapshotNow(
        [](const core::SnapshotSession&) {});
    target = bed.cluster.admin().findSession(snapId)->request().target;
  });
  bed.cluster.env().run();  // traffic continues 4s past the snapshot
  bed.verifySnapshotMatchesOracle(snapId, target);
}

TEST(KvSnapshots, IncrementalForwardFromBase) {
  Testbed bed{snapConfig(9)};
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId baseId = 0;
  core::SnapshotId incId = 0;
  hlc::Timestamp incTarget;
  bool incComplete = false;
  auto& admin = bed.cluster.admin();

  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    baseId = admin.snapshotNow([](const core::SnapshotSession&) {});
  });
  bed.cluster.env().scheduleAt(4 * kMicrosPerSecond, [&] {
    // Incremental snapshot at a time after the base target.
    incTarget = admin.clock().tick();
    incId = admin.doSnapshot(incTarget, core::SnapshotKind::kIncremental,
                             baseId, [&](const core::SnapshotSession& s) {
                               incComplete = s.state() ==
                                             core::GlobalSnapshotState::kComplete;
                             });
  });
  bed.cluster.env().run();

  ASSERT_TRUE(incComplete);
  // Incremental snapshots store deltas; materialization resolves them.
  for (size_t s = 0; s < bed.cluster.serverCount(); ++s) {
    const auto* snap = bed.cluster.server(s).snapshots().find(incId);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->kind, core::SnapshotKind::kIncremental);
    EXPECT_TRUE(snap->state.empty());  // delta-only storage
  }
  bed.verifySnapshotMatchesOracle(incId, incTarget);
}

TEST(KvSnapshots, RollingReplacesBaseAndMatchesOracle) {
  Testbed bed{snapConfig(11)};
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId baseId = 0;
  core::SnapshotId rollId = 0;
  hlc::Timestamp rollTarget;
  bool rollComplete = false;
  auto& admin = bed.cluster.admin();

  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    baseId = admin.snapshotNow([](const core::SnapshotSession&) {});
  });
  bed.cluster.env().scheduleAt(4 * kMicrosPerSecond, [&] {
    rollTarget = admin.clock().tick();
    rollId = admin.doSnapshot(rollTarget, core::SnapshotKind::kRolling,
                              baseId, [&](const core::SnapshotSession& s) {
                                rollComplete = s.state() ==
                                               core::GlobalSnapshotState::kComplete;
                              });
  });
  bed.cluster.env().run();

  ASSERT_TRUE(rollComplete);
  for (size_t s = 0; s < bed.cluster.serverCount(); ++s) {
    // The base has been consumed (§III-A rolling semantics).
    EXPECT_FALSE(bed.cluster.server(s).snapshots().contains(baseId));
    EXPECT_TRUE(bed.cluster.server(s).snapshots().contains(rollId));
  }
  bed.verifySnapshotMatchesOracle(rollId, rollTarget);
}

TEST(KvSnapshots, RollingBackwardInTime) {
  // Roll a snapshot to a target *earlier* than the base (backward-
  // incremental direction, Fig. 5).
  Testbed bed{snapConfig(13)};
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId baseId = 0;
  core::SnapshotId rollId = 0;
  hlc::Timestamp rollTarget;
  bool rollComplete = false;
  auto& admin = bed.cluster.admin();

  bed.cluster.env().scheduleAt(3 * kMicrosPerSecond, [&] {
    baseId = admin.snapshotNow([](const core::SnapshotSession&) {});
  });
  bed.cluster.env().scheduleAt(5 * kMicrosPerSecond, [&] {
    rollTarget = hlc::fromPhysicalMillis(admin.clock().tick().l - 3000);
    rollId = admin.doSnapshot(rollTarget, core::SnapshotKind::kRolling,
                              baseId, [&](const core::SnapshotSession& s) {
                                rollComplete = s.state() ==
                                               core::GlobalSnapshotState::kComplete;
                              });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(rollComplete);
  bed.verifySnapshotMatchesOracle(rollId, rollTarget);
}

TEST(KvSnapshots, OutOfReachYieldsPartialSnapshot) {
  ClusterConfig cfg = snapConfig(15);
  cfg.server.logConfig.maxBytes = 0;
  cfg.server.logConfig.maxEntries = 10;  // tiny window
  Testbed bed{cfg};
  bed.driver->start(2 * kMicrosPerSecond);

  bool done = false;
  core::GlobalSnapshotState state{};
  size_t failedNodes = 0;
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    // Ask for a time long before the tiny window's floor.
    bed.cluster.admin().snapshotPast(1900, [&](const core::SnapshotSession& s) {
      done = true;
      state = s.state();
      failedNodes = s.failedNodes().size();
    });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(state, core::GlobalSnapshotState::kPartial);
  EXPECT_EQ(failedNodes, bed.cluster.serverCount());
}

TEST(KvSnapshots, CrashedNodeDoesNotAck) {
  Testbed bed{snapConfig(17)};
  bed.driver->start(3 * kMicrosPerSecond);
  bool done = false;
  bed.cluster.env().scheduleAt(kMicrosPerSecond, [&] {
    bed.cluster.server(0).crash();
    bed.cluster.admin().snapshotNow(
        [&](const core::SnapshotSession&) { done = true; });
  });
  bed.cluster.env().run();
  // The dead node never answers; the session stays open (the operator
  // can poll progress and restart — it must not report success).
  EXPECT_FALSE(done);
}

TEST(KvSnapshots, ConcurrentFullSnapshotsConvert) {
  ClusterConfig cfg = snapConfig(19);
  cfg.server.convertConcurrentSnapshots = true;
  Testbed bed{cfg};
  // Big enough preload that the first copy is still running when the
  // second request lands.
  bed.driver->start(6 * kMicrosPerSecond);

  core::SnapshotId first = 0;
  core::SnapshotId second = 0;
  hlc::Timestamp firstTarget;
  hlc::Timestamp secondTarget;
  bool firstDone = false;
  bool secondDone = false;
  auto& admin = bed.cluster.admin();
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    first = admin.snapshotNow(
        [&](const core::SnapshotSession&) { firstDone = true; });
    firstTarget = admin.findSession(first)->request().target;
    second = admin.snapshotNow(
        [&](const core::SnapshotSession&) { secondDone = true; });
    secondTarget = admin.findSession(second)->request().target;
  });
  bed.cluster.env().run();

  ASSERT_TRUE(firstDone);
  ASSERT_TRUE(secondDone);
  uint64_t converted = 0;
  for (size_t s = 0; s < bed.cluster.serverCount(); ++s) {
    converted += bed.cluster.server(s).snapshotsConverted();
  }
  EXPECT_GE(converted, 1u);
  // Both snapshots must still materialize to their oracle states.
  bed.verifySnapshotMatchesOracle(first, firstTarget);
  bed.verifySnapshotMatchesOracle(second, secondTarget);
}

TEST(KvSnapshots, ProgressReporting) {
  Testbed bed{snapConfig(21)};
  bed.driver->start(4 * kMicrosPerSecond);
  core::SnapshotId snapId = 0;
  std::vector<std::pair<NodeId, ProgressReplyBody>> replies;
  auto& admin = bed.cluster.admin();
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond, [&] {
    snapId = admin.snapshotNow([](const core::SnapshotSession&) {});
  });
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond + 300'000, [&] {
    admin.checkProgress(snapId, [&](NodeId n, ProgressReplyBody body) {
      replies.emplace_back(n, body);
    });
  });
  bed.cluster.env().run();
  EXPECT_EQ(replies.size(), bed.cluster.serverCount());
  for (const auto& [node, body] : replies) {
    EXPECT_EQ(body.snapshotId, snapId);
    // By the end of the run everything completed; mid-run status may be
    // pending or complete — both are valid replies.
    EXPECT_NE(body.status, core::LocalSnapshotStatus::kFailed);
  }
}

TEST(KvSnapshots, MarkUnavailableSettlesSessionAsPartial) {
  Testbed bed{snapConfig(23)};
  bed.driver->start(3 * kMicrosPerSecond);
  core::SnapshotId snapId = 0;
  bool done = false;
  core::GlobalSnapshotState state{};
  bed.cluster.env().scheduleAt(kMicrosPerSecond, [&] {
    bed.cluster.server(0).crash();
    snapId = bed.cluster.admin().snapshotNow(
        [&](const core::SnapshotSession& s) {
          done = true;
          state = s.state();
        });
  });
  // Operator gives up on the dead node a second later.
  bed.cluster.env().scheduleAt(2 * kMicrosPerSecond + 500'000, [&] {
    bed.cluster.admin().markNodeUnavailable(snapId, 0);
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(state, core::GlobalSnapshotState::kPartial);
}

TEST(KvSnapshots, RestartReissuesSameTarget) {
  Testbed bed{snapConfig(25)};
  bed.driver->start(5 * kMicrosPerSecond);
  core::SnapshotId firstId = 0;
  core::SnapshotId secondId = 0;
  hlc::Timestamp target;
  bool firstDone = false;
  bool secondDone = false;
  bed.cluster.env().scheduleAt(kMicrosPerSecond, [&] {
    bed.cluster.server(0).crash();
    firstId = bed.cluster.admin().snapshotNow(
        [&](const core::SnapshotSession&) { firstDone = true; });
    target = bed.cluster.admin().findSession(firstId)->request().target;
  });
  bed.cluster.env().scheduleAt(3 * kMicrosPerSecond, [&] {
    auto restarted = bed.cluster.admin().restartSnapshot(
        firstId, [&](const core::SnapshotSession& s) {
          secondDone = true;
          // Same consistent-cut target as the abandoned attempt.
          EXPECT_EQ(s.request().target, target);
        });
    ASSERT_TRUE(restarted.isOk());
    secondId = restarted.value();
    EXPECT_NE(secondId, firstId);
    // The dead node is known: settle the restarted session as partial.
    bed.cluster.env().schedule(2 * kMicrosPerSecond, [&] {
      bed.cluster.admin().markNodeUnavailable(secondId, 0);
    });
  });
  bed.cluster.env().run();
  EXPECT_FALSE(firstDone);  // abandoned session never fires
  EXPECT_TRUE(secondDone);
  // Restarting an unknown session fails cleanly.
  EXPECT_FALSE(bed.cluster.admin().restartSnapshot(999999, nullptr).isOk());
}

TEST(KvSnapshots, ArchiveExtendsRetrospectionBeyondMemory) {
  // Live window keeps only ~1 s of history; the disk archive (§III-A
  // extension) keeps everything.  A snapshot 3 s in the past must fail
  // without the archive and succeed (exactly) with it.
  ClusterConfig cfg = snapConfig(41);
  cfg.server.logConfig.maxAgeMillis = 1000;
  cfg.server.archive.enabled = true;
  // keepInMemory + period must stay under the live window's age bound,
  // or entries could age out before being spilled (gap).
  cfg.server.archive.periodMicros = 400'000;
  cfg.server.archive.keepInMemoryMillis = 400;
  Testbed bed{cfg};
  bed.driver->start(5 * kMicrosPerSecond);

  core::SnapshotId snapId = 0;
  hlc::Timestamp target;
  bool complete = false;
  bed.cluster.env().scheduleAt(4 * kMicrosPerSecond, [&] {
    snapId = bed.cluster.admin().snapshotPast(
        3000, [&](const core::SnapshotSession& s) {
          complete = s.state() == core::GlobalSnapshotState::kComplete;
        });
    target = bed.cluster.admin().findSession(snapId)->request().target;
  });
  bed.cluster.env().run();

  ASSERT_TRUE(complete);
  // The live window alone cannot reach the target...
  for (size_t s = 0; s < bed.cluster.serverCount(); ++s) {
    auto& server = bed.cluster.server(s);
    EXPECT_FALSE(server.retroscope()
                     .getLog(VoldemortServer::kStoreLog)
                     .covers(target));
    // ... and yet the snapshot is exact: it must match an independent
    // archive-assisted rollback of the *current* state to the same
    // target (computed over a different [captureTime vs now] range).
    log::ArchiveDiffStats astats;
    auto rollback = server.archive()->diffToPast(
        server.retroscope().getLog(VoldemortServer::kStoreLog), target,
        &astats);
    ASSERT_TRUE(rollback.isOk());
    auto fromCurrent = server.bdb().data();
    rollback.value().applyTo(fromCurrent);

    auto materialized = server.snapshots().materialize(snapId);
    ASSERT_TRUE(materialized.isOk());
    EXPECT_EQ(materialized.value(), fromCurrent) << "server " << s;
    EXPECT_GT(astats.archivedEntriesTraversed, 0u) << "server " << s;
  }
}

TEST(KvSnapshots, WithoutArchiveDeepTargetIsPartial) {
  ClusterConfig cfg = snapConfig(43);
  cfg.server.logConfig.maxAgeMillis = 1000;
  cfg.server.archive.enabled = false;
  Testbed bed{cfg};
  bed.driver->start(5 * kMicrosPerSecond);
  bool done = false;
  core::GlobalSnapshotState state{};
  bed.cluster.env().scheduleAt(4 * kMicrosPerSecond, [&] {
    bed.cluster.admin().snapshotPast(3000,
                                     [&](const core::SnapshotSession& s) {
                                       done = true;
                                       state = s.state();
                                     });
  });
  bed.cluster.env().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(state, core::GlobalSnapshotState::kPartial);
}

// Parameterized sweep: correctness across write mixes and distributions.
//
// gtest names each case after the parameter's raw bytes, padding
// included.  The seven bytes after `dist` used to be padding, left
// uninitialized, so a case's ctest name changed from one build to the
// next.  They are spelled out as `nameBytes` instead: never read by the
// test, and set to reproduce the names these cases were registered under.
struct SnapParam {
  double writeFraction;
  workload::KeyDistribution dist;
  std::array<uint8_t, 7> nameBytes;
  uint64_t seed;
};
static_assert(sizeof(SnapParam) == 24, "no padding left to print");

class KvSnapshotSweep : public ::testing::TestWithParam<SnapParam> {};

TEST_P(KvSnapshotSweep, RetrospectiveMatchesOracle) {
  const SnapParam p = GetParam();
  Testbed bed{snapConfig(p.seed), p.writeFraction, p.dist};
  bed.driver->start(4 * kMicrosPerSecond);

  core::SnapshotId snapId = 0;
  hlc::Timestamp target;
  bool complete = false;
  bed.cluster.env().scheduleAt(3 * kMicrosPerSecond, [&] {
    snapId = bed.cluster.admin().snapshotPast(
        800, [&](const core::SnapshotSession& s) {
          complete = s.state() == core::GlobalSnapshotState::kComplete;
        });
    target = bed.cluster.admin().findSession(snapId)->request().target;
  });
  bed.cluster.env().run();
  ASSERT_TRUE(complete);
  bed.verifySnapshotMatchesOracle(snapId, target);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, KvSnapshotSweep,
    ::testing::Values(
        SnapParam{1.0, workload::KeyDistribution::kUniform, {0xFF, 0x70}, 31},
        SnapParam{0.5, workload::KeyDistribution::kUniform, {}, 32},
        SnapParam{0.1, workload::KeyDistribution::kUniform, {0x00, 0x04}, 33},
        SnapParam{1.0, workload::KeyDistribution::kHotspot, {}, 34},
        SnapParam{0.5, workload::KeyDistribution::kZipfian, {}, 35}));

}  // namespace
}  // namespace retro::kv
