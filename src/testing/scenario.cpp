#include "testing/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "common/random.hpp"

namespace retro::testing {

namespace {

/// Faults and snapshot times are confined to the middle of the run so
/// the cluster has warm-up and drain phases.
constexpr double kFaultWindowLo = 0.10;
constexpr double kFaultWindowHi = 0.90;

FaultEvent makeFault(Rng& rng, const Scenario& s, bool anomalies) {
  FaultEvent f;
  const auto lo = static_cast<TimeMicros>(kFaultWindowLo * s.durationMicros);
  const auto hi = static_cast<TimeMicros>(kFaultWindowHi * s.durationMicros);
  f.startMicros = rng.nextInt(lo, hi);
  f.durationMicros =
      rng.nextInt(50'000, std::max<TimeMicros>(100'000, s.durationMicros / 4));
  const size_t totalNodes = s.servers + s.clients;

  // Skew spikes only appear in anomaly scenarios; the other four kinds
  // are always in the pool.  Crash/restart faults join the pool on the
  // kv substrate (its servers implement the crash–recovery protocol),
  // and storage-corruption faults join above them when the scenario opts
  // in.  New kinds always occupy the highest indices so adding them
  // never reshuffles how an existing seed maps to the other kinds.
  const bool crashes = s.substrate == Substrate::kKvStore;
  const bool storage = crashes && s.storageFaults;
  const bool churn = crashes && s.membershipChurn && s.spareServers > 0;
  const int kinds = (anomalies ? 5 : 4) + (crashes ? 1 : 0) +
                    (storage ? 2 : 0) + (churn ? 2 : 0);
  const int pick = static_cast<int>(rng.nextBounded(kinds));
  if (churn && pick >= kinds - 2) {
    if (pick == kinds - 1) {
      f.kind = FaultKind::kNodeLeave;
      // Genesis members only: a spare that never joined cannot leave.
      f.node = static_cast<NodeId>(rng.nextBounded(s.servers));
    } else {
      f.kind = FaultKind::kNodeJoin;
      f.node = static_cast<NodeId>(s.servers + rng.nextBounded(s.spareServers));
      f.magnitude = static_cast<double>(rng.nextBounded(s.servers));
    }
    f.durationMicros = 0;  // point events
    return f;
  }
  const int top = kinds - (churn ? 2 : 0);  // first index above storage
  if (storage && pick >= top - 2) {
    // Servers only — the faults target durable state.
    f.node = static_cast<NodeId>(rng.nextBounded(s.servers));
    if (pick == top - 1) {
      f.kind = FaultKind::kBitRot;
      // Fraction of cold records rotted; bites at the next restart.
      f.magnitude = 0.002 + rng.nextDouble() * 0.02;
      f.durationMicros = 0;
    } else {
      f.kind = FaultKind::kTornWrite;
      // Torn-write probability while armed (fsync lies ride at half).
      f.magnitude = 0.2 + rng.nextDouble() * 0.6;
    }
    return f;
  }
  if (crashes && pick == top - 1 - (storage ? 2 : 0)) {
    f.kind = FaultKind::kCrashRestart;
    // Servers only: clients/admin have no durable state to recover.
    f.node = static_cast<NodeId>(rng.nextBounded(s.servers));
    if (rng.nextBool(0.25)) {
      // Permanent crash: the restart lands past the end of the run, so
      // collection must settle via replica fallback or degrade to
      // kPartial.
      f.durationMicros = s.durationMicros * 2;
    }
    return f;
  }
  switch (pick) {
    case 0:
      f.kind = FaultKind::kDropWindow;
      f.magnitude = 0.02 + rng.nextDouble() * 0.28;  // 2% .. 30% loss
      break;
    case 1:
      f.kind = FaultKind::kLatencySpike;
      f.magnitude = static_cast<double>(rng.nextInt(1'000, 20'000));
      break;
    case 2:
      f.kind = FaultKind::kPartition;
      f.node = static_cast<NodeId>(rng.nextBounded(totalNodes));
      // Churn scenarios exercise asymmetric link loss too (one-way
      // silence is what fools a naive failure detector into suspecting a
      // member its peers can still hear).
      if (churn) f.magnitude = static_cast<double>(rng.nextBounded(3));
      break;
    case 3:
      f.kind = FaultKind::kNodeStall;
      f.node = static_cast<NodeId>(rng.nextBounded(totalNodes));
      // Stalls must end well before the run drains so buffered messages
      // still flow; cap the stall length.
      f.durationMicros = std::min<TimeMicros>(f.durationMicros, 400'000);
      break;
    default:
      f.kind = FaultKind::kSkewSpike;
      f.node = static_cast<NodeId>(rng.nextBounded(totalNodes));
      // Well beyond any realistic NTP bound, both directions: +20..500ms
      // or the negative (clock steps backwards).
      f.magnitude = static_cast<double>(rng.nextInt(20'000, 500'000)) *
                    (rng.nextBool(0.5) ? 1.0 : -1.0);
      break;
  }
  return f;
}

}  // namespace

Scenario generateScenario(uint64_t seed, Substrate substrate,
                          ScenarioOptions opts) {
  // Substreams keep each aspect stable under changes to the others.
  Rng root(seed ^ 0x5eedf0dd5eedf0ddULL);
  Rng topo = root.fork(1);
  Rng work = root.fork(2);
  Rng envr = root.fork(3);
  Rng faults = root.fork(4);
  Rng snaps = root.fork(5);

  Scenario s;
  s.seed = seed;
  s.substrate = substrate;
  s.clockAnomalies = opts.clockAnomalies;
  s.storageFaults = opts.storageFaults;
  s.membershipChurn =
      opts.membershipChurn && substrate == Substrate::kKvStore;

  // --- topology ---
  if (substrate == Substrate::kKvStore) {
    s.servers = 2 + topo.nextBounded(4);  // 2..5
  } else {
    s.servers = 2 + topo.nextBounded(3);  // 2..4 members
  }
  s.clients = 2 + topo.nextBounded(4);  // 2..5
  // Extra topo draws only in churn scenarios: non-churn seeds expand to
  // bit-identical scenarios with or without this feature compiled in.
  if (s.membershipChurn) s.spareServers = 1 + topo.nextBounded(2);  // 1..2

  // --- workload ---
  s.durationMicros = static_cast<TimeMicros>(2 + work.nextBounded(4)) *
                     kMicrosPerSecond;  // 2..5 s
  s.writeFraction = 0.3 + work.nextDouble() * 0.7;
  s.keySpace = 200 + work.nextBounded(1800);
  s.valueBytes = 16 + work.nextBounded(112);
  switch (work.nextBounded(3)) {
    case 0: s.distribution = workload::KeyDistribution::kUniform; break;
    case 1: s.distribution = workload::KeyDistribution::kZipfian; break;
    default: s.distribution = workload::KeyDistribution::kHotspot; break;
  }

  // --- environment ---
  s.maxSkewMicros = envr.nextInt(0, 50'000);  // up to 50 ms NTP bound
  s.driftPpm = envr.nextDouble() * 200.0;
  s.clockResyncPeriodMicros =
      envr.nextInt(1, 10) * kMicrosPerSecond;  // resyncs happen mid-run
  s.baseLatencyMicros = envr.nextInt(100, 1'000);
  s.jitterMeanMicros = envr.nextInt(50, 500);
  s.baseDropProbability = envr.nextBool(0.5) ? 0.0 : envr.nextDouble() * 0.05;

  // --- fault schedule ---
  const uint64_t pooled = faults.nextBounded(7);  // 0..6
  for (uint64_t i = 0; i < pooled; ++i) {
    s.faults.push_back(makeFault(faults, s, /*anomalies=*/false));
  }
  if (s.membershipChurn && s.spareServers > 0) {
    // Guarantee at least one join per churn scenario (the pool alone
    // would leave many seeds churn-free); a coin-flip leave rides along.
    FaultEvent join;
    join.kind = FaultKind::kNodeJoin;
    const auto lo = static_cast<TimeMicros>(kFaultWindowLo * s.durationMicros);
    const auto hi = static_cast<TimeMicros>(kFaultWindowHi * s.durationMicros);
    join.startMicros = faults.nextInt(lo, hi);
    join.node =
        static_cast<NodeId>(s.servers + faults.nextBounded(s.spareServers));
    join.magnitude = static_cast<double>(faults.nextBounded(s.servers));
    s.faults.push_back(join);
    if (faults.nextBool(0.35)) {
      FaultEvent leave;
      leave.kind = FaultKind::kNodeLeave;
      leave.startMicros = faults.nextInt(lo, hi);
      leave.node = static_cast<NodeId>(faults.nextBounded(s.servers));
      s.faults.push_back(leave);
    }
  }
  if (opts.clockAnomalies) {
    // Guarantee at least one genuine skew spike in anomaly scenarios.
    const uint64_t count = 1 + faults.nextBounded(3);
    for (uint64_t i = 0; i < count; ++i) {
      FaultEvent f;
      do {
        f = makeFault(faults, s, /*anomalies=*/true);
      } while (f.kind != FaultKind::kSkewSpike);
      s.faults.push_back(f);
    }
  }
  std::sort(s.faults.begin(), s.faults.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.startMicros < b.startMicros;
            });

  // --- snapshot plans ---
  const uint64_t snapCount = 1 + snaps.nextBounded(4);  // 1..4
  for (uint64_t i = 0; i < snapCount; ++i) {
    SnapshotPlan p;
    p.atMicros = snaps.nextInt(
        static_cast<int64_t>(0.3 * s.durationMicros),
        static_cast<int64_t>(0.95 * s.durationMicros));
    if (snaps.nextBool(0.5)) {
      // Retrospective: target within the first half of elapsed time, so
      // it usually stays within window-log reach.
      p.pastDeltaMillis =
          snaps.nextInt(1, std::max<int64_t>(2, p.atMicros / 2'000));
    }
    if (substrate == Substrate::kKvStore) {
      p.incremental = snaps.nextBool(0.3);
    }
    s.snapshots.push_back(p);
  }
  std::sort(s.snapshots.begin(), s.snapshots.end(),
            [](const SnapshotPlan& a, const SnapshotPlan& b) {
              return a.atMicros < b.atMicros;
            });
  return s;
}

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropWindow: return "drop-window";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kNodeStall: return "node-stall";
    case FaultKind::kSkewSpike: return "skew-spike";
    case FaultKind::kCrashRestart: return "crash-restart";
    case FaultKind::kTornWrite: return "torn-write";
    case FaultKind::kBitRot: return "bit-rot";
    case FaultKind::kNodeJoin: return "node-join";
    case FaultKind::kNodeLeave: return "node-leave";
  }
  return "?";
}

std::string describeScenario(const Scenario& s) {
  std::ostringstream out;
  out << "seed=" << s.seed
      << (s.substrate == Substrate::kKvStore ? " kv" : " grid") << " n="
      << s.servers;
  if (s.spareServers > 0) out << "(+" << s.spareServers << "sp)";
  out << "+" << s.clients << "c dur="
      << s.durationMicros / 1000 << "ms wf=" << s.writeFraction
      << " skew=" << s.maxSkewMicros / 1000 << "ms drop="
      << s.baseDropProbability << " faults=[";
  for (size_t i = 0; i < s.faults.size(); ++i) {
    const auto& f = s.faults[i];
    if (i) out << ",";
    out << faultKindName(f.kind) << "@" << f.startMicros / 1000 << "ms";
    if (f.kind == FaultKind::kPartition || f.kind == FaultKind::kNodeStall ||
        f.kind == FaultKind::kSkewSpike ||
        f.kind == FaultKind::kCrashRestart ||
        f.kind == FaultKind::kTornWrite || f.kind == FaultKind::kBitRot ||
        f.kind == FaultKind::kNodeJoin || f.kind == FaultKind::kNodeLeave) {
      out << "/n" << f.node;
      if (f.kind == FaultKind::kPartition && f.magnitude == 1.0) out << "(out)";
      if (f.kind == FaultKind::kPartition && f.magnitude == 2.0) out << "(in)";
      if (f.kind == FaultKind::kCrashRestart &&
          f.startMicros + f.durationMicros > s.durationMicros) {
        out << "(perm)";
      }
    }
  }
  out << "] snaps=[";
  for (size_t i = 0; i < s.snapshots.size(); ++i) {
    const auto& p = s.snapshots[i];
    if (i) out << ",";
    out << "@" << p.atMicros / 1000 << "ms";
    if (p.pastDeltaMillis > 0) out << "-" << p.pastDeltaMillis << "ms";
    if (p.incremental) out << "(inc)";
  }
  out << "]";
  if (s.clockAnomalies) out << " anomalies";
  if (s.storageFaults) out << " storage-faults";
  if (s.membershipChurn) out << " membership-churn";
  if (s.injectSkipRecvTick) out << " BUG:skip-recv-tick";
  if (s.injectSilentCorruption) out << " BUG:silent-corruption";
  return out.str();
}

std::string replayCommand(const Scenario& s) {
  std::ostringstream out;
  out << "RETRO_FUZZ_SEED=" << s.seed << " ./tests/";
  if (s.clockAnomalies) {
    out << "test_fuzz_clock_anomalies";
  } else if (s.substrate == Substrate::kKvStore) {
    out << "test_fuzz_kvstore_cuts";
  } else {
    out << "test_fuzz_grid_cuts";
  }
  return out.str();
}

}  // namespace retro::testing
