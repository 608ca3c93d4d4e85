// Deterministic scenario generation for the simulation-fuzz harness: a
// single 64-bit seed expands into a full multi-node scenario — cluster
// topology, workload mix, an adversarial fault schedule (drop windows,
// latency spikes, partitions, node stalls, clock-skew spikes) and a set
// of snapshot requests.  Replaying the same Scenario is bit-identical,
// which is what makes shrinking and seed-based repro possible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/generator.hpp"

namespace retro::testing {

enum class Substrate : uint8_t { kKvStore, kGrid };

enum class FaultKind : uint8_t {
  kDropWindow,    ///< raise the network drop probability for a window
  kLatencySpike,  ///< add extra one-way latency for a window
  kPartition,     ///< isolate one node from everyone for a window
  kNodeStall,     ///< freeze deliveries to one node (GC pause) for a window
  kSkewSpike,     ///< clock anomaly: shift one node's clock for a window
  kCrashRestart,  ///< crash one server; restart it when the window ends
                  ///< (kv substrate only; a window past the run end means
                  ///< the node stays down permanently)
  kTornWrite,     ///< storage: arm torn-write/lying-fsync probabilities on
                  ///< one server for a window (bites at the next crash)
  kBitRot,        ///< storage: queue a bit-rot episode on one server,
                  ///< discovered at its next restart's recovery scrub
  kNodeJoin,      ///< membership: gossip a spare server into the ring
                  ///< (point event; magnitude = the seed member asked)
  kNodeLeave,     ///< membership: start the drain-and-leave protocol on
                  ///< a genesis server (point event)
};

struct FaultEvent {
  FaultKind kind = FaultKind::kDropWindow;
  TimeMicros startMicros = 0;
  TimeMicros durationMicros = 0;
  /// Target node for kPartition / kNodeStall / kSkewSpike / kCrashRestart
  /// / kNodeJoin / kNodeLeave.
  NodeId node = 0;
  /// kDropWindow: probability; kLatencySpike: extra micros;
  /// kSkewSpike: offset micros (negative steps the clock backwards);
  /// kPartition: direction (0 = both ways, 1 = outbound-only, 2 =
  /// inbound-only — the asymmetric link failures that fool naive failure
  /// detectors); kNodeJoin: the seed member the joiner contacts.
  double magnitude = 0.0;
};

struct SnapshotPlan {
  /// Virtual time at which the request is issued.
  TimeMicros atMicros = 0;
  /// 0 = instant snapshot; >0 = retrospective, this many ms in the past.
  int64_t pastDeltaMillis = 0;
  /// Chain onto the previously completed snapshot (kvstore only).
  bool incremental = false;
};

struct Scenario {
  uint64_t seed = 0;
  Substrate substrate = Substrate::kKvStore;

  // --- topology ---
  size_t servers = 3;  ///< kv servers or grid members
  size_t clients = 3;
  /// Spare kv servers outside the genesis membership, available for
  /// kNodeJoin faults (membership-churn scenarios only).
  size_t spareServers = 0;

  // --- workload ---
  TimeMicros durationMicros = 3 * kMicrosPerSecond;
  double writeFraction = 1.0;
  uint64_t keySpace = 500;
  size_t valueBytes = 40;
  workload::KeyDistribution distribution = workload::KeyDistribution::kUniform;

  // --- environment ---
  TimeMicros maxSkewMicros = 5'000;
  double driftPpm = 50.0;
  TimeMicros clockResyncPeriodMicros = 10 * kMicrosPerSecond;
  TimeMicros baseLatencyMicros = 300;
  TimeMicros jitterMeanMicros = 150;
  double baseDropProbability = 0.0;

  /// Scenario includes kSkewSpike faults that break the NTP skew bound;
  /// skew-bound assertions are skipped and ε-detection is expected to
  /// fire instead.
  bool clockAnomalies = false;

  /// Deliberate protocol bug (client skips its receive-event HLC tick) —
  /// the harness must FAIL on such a scenario; used for self-tests.
  bool injectSkipRecvTick = false;

  /// Storage-corruption faults (kTornWrite/kBitRot) are in the fault
  /// pool, and servers run with a low transient-read-error probability.
  bool storageFaults = false;

  /// Membership churn: gossip membership is enabled, spare servers exist,
  /// and kNodeJoin/kNodeLeave faults (plus asymmetric partitions) are in
  /// the pool.  At least one join is guaranteed.
  bool membershipChurn = false;

  /// Deliberate integrity bug: record/frame checksums disabled, so
  /// injected corruption replays into recovered state undetected.  The
  /// harness must FAIL on such a scenario (the forward-replay oracle
  /// sees the silently wrong cut); used for self-tests.
  bool injectSilentCorruption = false;

  std::vector<FaultEvent> faults;
  std::vector<SnapshotPlan> snapshots;
};

struct ScenarioOptions {
  /// Permit kSkewSpike faults outside the NTP bound (sets clockAnomalies).
  bool clockAnomalies = false;
  /// Add storage-corruption faults to the pool (sets storageFaults).
  bool storageFaults = false;
  /// Enable gossip membership + join/leave churn (sets membershipChurn).
  bool membershipChurn = false;
};

/// Expand a seed into a concrete scenario.  Pure function of
/// (seed, substrate, opts).
Scenario generateScenario(uint64_t seed, Substrate substrate,
                          ScenarioOptions opts = {});

/// One-line human summary (topology, workload, fault/snapshot counts).
std::string describeScenario(const Scenario& s);

/// Shell command that replays this scenario's seed through the matching
/// ctest binary.
std::string replayCommand(const Scenario& s);

const char* faultKindName(FaultKind kind);

}  // namespace retro::testing
