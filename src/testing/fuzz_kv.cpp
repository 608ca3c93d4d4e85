// Scenario runner for the Voldemort-like kvstore substrate.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "kvstore/cluster.hpp"
#include "testing/fault_injector.hpp"
#include "testing/fuzz.hpp"
#include "workload/driver.hpp"

namespace retro::testing {
namespace {

std::vector<workload::ClientHandle> kvHandles(kv::VoldemortCluster& cluster) {
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
  return handles;
}

/// Straight-line re-execution oracle over the *shadow history*: a
/// god-view record of every append on the server (including repair and
/// tombstone appends), captured via setAppendObserver.  Unlike the live
/// window-log, the shadow survives the recovery-time log resets and
/// truncations that corruption handling performs, so the oracle stays
/// sound for any snapshot the server agreed to serve.
/// Replays the first `prefix` shadow entries with ts <= target.  The
/// prefix bound matters under elastic membership: rebalance grafts
/// append history with timestamps in the past, so an unbounded replay
/// would credit a snapshot with keys whose history only arrived after
/// its state was captured.
std::unordered_map<Key, Value> kvOracleAt(
    const std::vector<log::Entry>& shadow,
    const std::unordered_map<Key, Value>& initial, hlc::Timestamp target,
    size_t prefix) {
  auto state = initial;
  const size_t n = std::min(prefix, shadow.size());
  for (size_t i = 0; i < n; ++i) {
    const log::Entry& e = shadow[i];
    if (e.ts > target) continue;
    if (e.newValue) {
      state[e.key] = *e.newValue;
    } else {
      state.erase(e.key);
    }
  }
  return state;
}

/// Expected state for a stored snapshot, walking incremental chains the
/// way materialize() does, but against the shadow history.  Each link's
/// capture mark (shadow length when the server fixed that snapshot's
/// content) bounds what it can reflect: a full snapshot replays its own
/// prefix up to its target; a forward incremental replays its base then
/// layers the (baseTarget, target] slice of its own prefix; a backward
/// (conversion) incremental rolls the base's knowledge back, so the
/// base's mark is the binding horizon.
std::optional<std::unordered_map<Key, Value>> kvExpectedFor(
    const core::SnapshotStore& store, core::SnapshotId id,
    const std::vector<log::Entry>& shadow,
    const std::unordered_map<Key, Value>& initial,
    const std::unordered_map<core::SnapshotId, size_t>& marks) {
  const core::LocalSnapshot* snap = store.find(id);
  if (snap == nullptr) return std::nullopt;
  const auto markOf = [&](core::SnapshotId sid) {
    const auto it = marks.find(sid);
    return it == marks.end() ? shadow.size() : it->second;
  };
  if (snap->kind == core::SnapshotKind::kFull) {
    return kvOracleAt(shadow, initial, snap->target, markOf(id));
  }
  if (!snap->baseId) return std::nullopt;
  const core::LocalSnapshot* base = store.find(*snap->baseId);
  if (base == nullptr) return std::nullopt;
  if (base->target <= snap->target) {
    auto state = kvExpectedFor(store, *snap->baseId, shadow, initial, marks);
    if (!state) return std::nullopt;
    const size_t n = std::min(markOf(id), shadow.size());
    for (size_t i = 0; i < n; ++i) {
      const log::Entry& e = shadow[i];
      if (!(base->target < e.ts) || snap->target < e.ts) continue;
      if (e.newValue) {
        (*state)[e.key] = *e.newValue;
      } else {
        state->erase(e.key);
      }
    }
    return state;
  }
  return kvOracleAt(shadow, initial, snap->target, markOf(*snap->baseId));
}

struct PlannedSnapshot {
  SnapshotPlan plan;
  core::SnapshotId id = 0;
  hlc::Timestamp target;
  bool requested = false;
  bool complete = false;
  bool partial = false;
  /// Copied from the session at resolution: which servers completed
  /// locally vs. via a replica vs. not at all — the oracle only checks
  /// servers that produced their own local snapshot.
  std::vector<core::SnapshotSession::Participant> participants;
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
};

}  // namespace

FuzzResult runKvScenario(const Scenario& s) {
  FuzzResult result;
  result.scenario = s;

  kv::ClusterConfig cfg;
  cfg.servers = s.servers;
  cfg.clients = s.clients;
  cfg.seed = s.seed;
  // Unbounded window-logs: the forward-replay oracle needs full history.
  cfg.server.logConfig.maxBytes = 0;
  cfg.server.bdb.cleanerEnabled = false;
  // A fuzz store holds at most 1 500 keys of at most 127 B, which fits one
  // default copy chunk: small chunks make full-snapshot copies meet puts,
  // crashes, churn and grafts mid-copy.
  cfg.server.copyChunkBytes = 4ull << 10;
  cfg.network.baseLatencyMicros = s.baseLatencyMicros;
  cfg.network.jitterMeanMicros = s.jitterMeanMicros;
  cfg.network.dropProbability = s.baseDropProbability;
  cfg.clocks.maxSkewMicros = s.maxSkewMicros;
  cfg.clocks.driftPpm = s.driftPpm;
  cfg.clocks.resyncPeriodMicros = s.clockResyncPeriodMicros;
  // Dropped responses must not wedge the closed-loop clients.
  cfg.client.opTimeoutMicros = 250'000;
  cfg.client.faultInjection.skipReceiveTick = s.injectSkipRecvTick;
  // Fault-tolerant snapshot collection: per-node timeouts generous enough
  // that a slow-but-alive server (stalls run up to 400 ms) is never
  // misclassified, with capped-backoff retries and replica fallback for
  // servers that crash mid-collection.
  cfg.admin.requestTimeoutMicros = 400'000;
  cfg.admin.maxAttemptsPerNode = 4;
  cfg.admin.retryBackoffBaseMicros = 100'000;
  cfg.admin.retryBackoffCapMicros = 800'000;
  cfg.admin.replicaFallbacks = 2;
  // Crash recovery replays a journaled window-log, so a restarted server
  // still satisfies the forward-replay oracle over its full history.
  cfg.server.recovery.persistWindowLog = true;
  // Storage integrity: the negative control disables checksums so
  // injected corruption replays into recovered state silently wrong —
  // which the oracle below must catch.
  cfg.server.integrity.checksums = !s.injectSilentCorruption;
  cfg.server.storageFaults.seed = s.seed;
  if (s.storageFaults) {
    // Background nuisance: recovery reads occasionally fail transiently
    // (retried at the cost of an extra disk pass).
    cfg.server.storageFaults.readErrorProbability = 0.02;
  }
  if (s.membershipChurn) {
    // Elastic ring: gossip membership on, spare servers constructed for
    // kNodeJoin faults.  The fuzz runs are short (2–5 s), so the gossip
    // and transfer cadences stay at their (already sub-second) defaults.
    cfg.spareServers = s.spareServers;
    cfg.server.membership.enabled = true;
  }

  kv::VoldemortCluster cluster(cfg);
  auto& trace = cluster.enableCausalityTrace();
  cluster.setEpsilonDetection(cleanEpsilonMillis(s.maxSkewMicros));

  // Shadow histories, one per server (preload happens before any append,
  // so attaching now captures every logged change).
  std::vector<std::vector<log::Entry>> shadows(cluster.serverCount());
  std::vector<std::unordered_map<core::SnapshotId, size_t>> captureMarks(
      cluster.serverCount());
  for (size_t i = 0; i < cluster.serverCount(); ++i) {
    cluster.server(i).setAppendObserver(
        [&shadows, i](const log::Entry& e) { shadows[i].push_back(e); });
    cluster.server(i).setSnapshotCaptureObserver(
        [&shadows, &captureMarks, i](core::SnapshotId id) {
          captureMarks[i][id] = shadows[i].size();
        });
  }

  const uint64_t preloadItems = std::min<uint64_t>(s.keySpace, 1'500);
  cluster.preload(preloadItems, s.valueBytes);
  std::vector<std::unordered_map<Key, Value>> initialStates;
  for (size_t i = 0; i < cluster.serverCount(); ++i) {
    initialStates.push_back(cluster.server(i).bdb().data());
  }

  workload::DriverConfig dcfg;
  dcfg.workload.writeFraction = s.writeFraction;
  dcfg.workload.keySpace = s.keySpace;
  dcfg.workload.valueBytes = s.valueBytes;
  dcfg.workload.distribution = s.distribution;
  dcfg.seed = s.seed ^ 0xd21e3ULL;
  workload::ClosedLoopDriver driver(cluster.env(), kvHandles(cluster),
                                    kv::VoldemortCluster::keyOf, dcfg);
  driver.start(s.durationMicros);

  FaultHooks hooks;
  hooks.clockOf = [&cluster](NodeId n) -> sim::SkewedClock& {
    return cluster.clockOf(n);
  };
  hooks.crash = [&cluster](NodeId n) {
    if (n < cluster.serverCount()) cluster.server(n).crash();
  };
  hooks.restart = [&cluster](NodeId n) {
    if (n < cluster.serverCount()) cluster.server(n).restart();
  };
  hooks.storageFaultsOf = [&cluster](NodeId n) -> sim::StorageFaultModel* {
    return n < cluster.serverCount() ? &cluster.server(n).storageFaults()
                                     : nullptr;
  };
  hooks.join = [&cluster](NodeId n, NodeId seed) {
    if (n < cluster.serverCount()) cluster.joinServer(n, seed);
  };
  hooks.leave = [&cluster](NodeId n) {
    if (n < cluster.serverCount()) cluster.leaveServer(n);
  };
  scheduleFaults(cluster.env(), cluster.network(), hooks, s);

  std::vector<PlannedSnapshot> planned(s.snapshots.size());
  for (size_t i = 0; i < s.snapshots.size(); ++i) {
    planned[i].plan = s.snapshots[i];
  }
  core::SnapshotId lastCompletedId = 0;

  for (size_t i = 0; i < planned.size(); ++i) {
    cluster.env().scheduleAt(planned[i].plan.atMicros, [&cluster, &planned,
                                                        &lastCompletedId, i] {
      PlannedSnapshot& ps = planned[i];
      ps.requested = true;
      auto onDone = [&ps, &lastCompletedId](const core::SnapshotSession& sess) {
        ps.complete = sess.state() == core::GlobalSnapshotState::kComplete;
        ps.partial = sess.state() == core::GlobalSnapshotState::kPartial;
        ps.participants = sess.participants();
        ps.retries = sess.totalRetries();
        ps.fallbacks = sess.replicaFallbacks();
        if (ps.complete) lastCompletedId = ps.id;
      };
      kv::AdminClient& admin = cluster.admin();
      if (ps.plan.incremental && lastCompletedId != 0) {
        // Chain onto the most recently completed snapshot.
        ps.id = admin.doSnapshot(admin.clock().tick(),
                                 core::SnapshotKind::kIncremental,
                                 lastCompletedId, onDone);
      } else if (ps.plan.pastDeltaMillis > 0) {
        ps.id = admin.snapshotPast(ps.plan.pastDeltaMillis, onDone);
      } else {
        ps.id = admin.snapshotNow(onDone);
      }
      ps.target = admin.findSession(ps.id)->request().target;
    });
  }

  cluster.env().run();

  result.opsIssued = driver.opsIssued();
  result.eventsRecorded = trace.recorder().totalEvents();
  result.epsilonViolations = cluster.totalEpsilonViolations();

  // --- adversarial cut checking over the recorded causality graph ---
  CutChecker checker(trace.recorder());
  checker.checkMonotonicity(result.report);
  for (const auto& ps : planned) {
    if (!ps.requested) continue;
    ++result.snapshotsRequested;
    checker.checkCutAt(ps.target, result.report);
    if (s.membershipChurn && !ps.participants.empty()) {
      // View-aware re-check: the cut restricted to the participant set
      // the coordinator collected it from (the routable members at the
      // cut's view epoch) plus the fixed clients/admin must itself be
      // consistent.
      std::vector<NodeId> members;
      for (const auto& p : ps.participants) members.push_back(p.node);
      for (size_t c = 0; c <= cluster.clientCount(); ++c) {
        members.push_back(static_cast<NodeId>(cluster.serverCount() + c));
      }
      checker.checkCutAtForMembers(ps.target, members, result.report);
    }
  }
  checker.checkRandomProbes(s.seed, 32, result.report);
  if (!s.clockAnomalies) {
    checker.checkSkewBound(s.maxSkewMicros, result.report);
    if (!s.injectSkipRecvTick && result.epsilonViolations > 0) {
      std::ostringstream out;
      out << result.epsilonViolations
          << " epsilon violations reported in a run without clock anomalies";
      result.report.fail(out.str());
    }
  }

  // --- receive paths: the decode-or-reject check drops no legitimate
  // message (every node's malformed counter stays at zero) ---
  uint64_t malformed = cluster.admin().malformedMessages();
  for (size_t i = 0; i < cluster.serverCount(); ++i) {
    malformed += cluster.server(i).malformedMessages();
  }
  for (size_t i = 0; i < cluster.clientCount(); ++i) {
    malformed += cluster.client(i).malformedMessages();
  }
  if (malformed > 0) {
    result.report.fail(std::to_string(malformed) +
                       " protocol messages rejected as malformed");
  }

  // --- fault-tolerance accounting ---
  for (const auto& f : s.faults) {
    if (f.kind == FaultKind::kCrashRestart) ++result.crashesInjected;
  }
  for (size_t i = 0; i < cluster.serverCount(); ++i) {
    result.serverRecoveries += cluster.server(i).recoveries();
  }

  // --- storage-integrity accounting ---
  for (size_t i = 0; i < cluster.serverCount(); ++i) {
    const auto& sc = cluster.server(i).storageCounters();
    result.corruptionsDetected += sc.get("storage.corruptions_detected");
    result.keysQuarantined += sc.get("storage.keys_quarantined");
    result.keysRepaired += sc.get("storage.keys_repaired");
    result.keysUnrecoverable += sc.get("storage.keys_unrecoverable");
    result.walTailTruncations += sc.get("storage.wal_tail_truncated");
    result.snapshotRefusals += sc.get("storage.snapshot_refusals");
    const auto& injected = cluster.server(i).storageFaults().injected();
    result.tornWritesInjected += injected.tornWrites;
    result.rotEpisodesInjected += injected.rotEpisodes;
    result.readRetries += cluster.server(i).disk().readRetries();
  }
  for (const auto& ps : planned) {
    if (!ps.requested) continue;
    result.snapshotRetries += ps.retries;
    result.replicaFallbacks += ps.fallbacks;
    if (ps.partial) ++result.snapshotsPartial;
  }

  // --- membership-churn accounting ---
  if (s.membershipChurn) {
    for (const auto& f : s.faults) {
      if (f.kind == FaultKind::kNodeJoin) ++result.joinsInjected;
      if (f.kind == FaultKind::kNodeLeave) ++result.leavesInjected;
    }
    for (size_t i = 0; i < cluster.serverCount(); ++i) {
      const auto& mc = cluster.server(i).membershipCounters();
      result.joinsCompleted += mc.get("membership.joins_completed");
      result.leavesCompleted += mc.get("membership.leaves_completed");
      result.transfersCompleted += mc.get("membership.transfers_completed");
      result.transfersAborted += mc.get("membership.transfers_aborted");
      result.keysTransferred += mc.get("membership.keys_received");
      result.historyEntriesGrafted +=
          mc.get("membership.history_entries_grafted");
      result.rebalanceRefusals += mc.get("membership.rebalance_refusals");
      result.suspectsMarked += mc.get("membership.suspects_marked");
    }
    for (size_t i = 0; i < cluster.clientCount(); ++i) {
      result.clientViewRefreshes += cluster.client(i).viewRefreshes();
    }
    // Every refusal must carry a structured reason: a participant whose
    // local snapshot resolved as anything but kComplete may never be
    // left with FailureReason::kNone.
    for (const auto& ps : planned) {
      for (const auto& p : ps.participants) {
        if (p.status && *p.status != core::LocalSnapshotStatus::kComplete &&
            p.reason == core::FailureReason::kNone) {
          std::ostringstream out;
          out << "server " << p.node << " refused snapshot " << ps.id
              << " without a structured reason (status "
              << static_cast<int>(*p.status) << ")";
          result.report.fail(out.str());
        }
      }
    }
  }

  // --- oracle agreement for every snapshot that completed ---
  for (const auto& ps : planned) {
    if (!ps.complete) continue;
    ++result.snapshotsCompleted;
    for (size_t srv = 0; srv < cluster.serverCount(); ++srv) {
      // Only servers that produced their own local snapshot are checked:
      // a participant resolved via replica fallback (kRecoveredViaReplica)
      // holds no local copy of this snapshot id.
      const auto* part =
          [&]() -> const core::SnapshotSession::Participant* {
        for (const auto& p : ps.participants) {
          if (p.node == static_cast<NodeId>(srv)) return &p;
        }
        return nullptr;
      }();
      if (part == nullptr || part->reason != core::FailureReason::kNone) {
        continue;
      }
      auto& server = cluster.server(srv);
      auto materialized = server.snapshots().materialize(ps.id);
      if (!materialized.isOk()) {
        std::ostringstream out;
        out << "server " << srv << " cannot materialize completed snapshot "
            << ps.id << ": " << materialized.status().toString();
        result.report.fail(out.str());
        continue;
      }
      const auto expected = kvExpectedFor(server.snapshots(), ps.id,
                                          shadows[srv], initialStates[srv],
                                          captureMarks[srv]);
      if (!expected) {
        std::ostringstream out;
        out << "server " << srv << " snapshot " << ps.id
            << ": oracle cannot resolve its stored chain";
        result.report.fail(out.str());
        continue;
      }
      ++result.oracleChecks;
      if (materialized.value() != *expected) {
        std::ostringstream out;
        out << "server " << srv << " snapshot " << ps.id << " at "
            << ps.target.toString() << " diverges from forward-replay oracle ("
            << materialized.value().size() << " vs " << expected->size()
            << " keys)";
        result.report.fail(out.str());
        if (std::getenv("RETRO_FUZZ_ORACLE_DEBUG") != nullptr) {
          int shown = 0;
          for (const auto& [k, v] : materialized.value()) {
            if (expected->contains(k) && expected->at(k) == v) continue;
            fprintf(stderr, "  key '%s': materialized=%s expected=%s\n",
                    k.c_str(), v.substr(0, 8).c_str(),
                    expected->contains(k) ? expected->at(k).substr(0, 8).c_str()
                                          : "<absent>");
            for (size_t e = 0; e < shadows[srv].size(); ++e) {
              const auto& ent = shadows[srv][e];
              if (ent.key != k) continue;
              fprintf(stderr, "    shadow[%zu]%s ts=%s new=%s\n", e,
                      e >= captureMarks[srv][ps.id] ? " (past mark)" : "",
                      ent.ts.toString().c_str(),
                      ent.newValue ? ent.newValue->substr(0, 8).c_str()
                                   : "<del>");
            }
            if (++shown >= 4) break;
          }
          for (const auto& [k, v] : *expected) {
            if (materialized.value().contains(k)) continue;
            fprintf(stderr, "  key '%s': expected-only=%s\n", k.c_str(),
                    v.substr(0, 8).c_str());
            if (++shown >= 8) break;
          }
          fprintf(stderr, "  mark=%zu shadow=%zu\n",
                  captureMarks[srv].contains(ps.id) ? captureMarks[srv][ps.id]
                                                    : SIZE_MAX,
                  shadows[srv].size());
        }
      }
    }
  }
  return result;
}

}  // namespace retro::testing
