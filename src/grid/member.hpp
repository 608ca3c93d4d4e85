// A Hazelcast-like grid member (§IV-B): holds primary and backup copies
// of key partitions, serves Map RPCs, replicates to backups, exchanges
// heartbeats — and, with Retroscope enabled, implants an HLC timestamp
// into every one of those remote operations at the RPC layer.
//
// Snapshots are taken *per partition* (the paper's design choice for
// fine-grained concurrency): each owned partition is copied while its
// keys are briefly locked (writes queue, "block momentarily"), the
// partition's window-log is traversed back to the target time, and a
// per-member aggregator persists the collected partition snapshots to
// disk asynchronously.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "core/coordinator.hpp"
#include "core/retroscope.hpp"
#include "core/snapshot_store.hpp"
#include "grid/messages.hpp"
#include "grid/partition_table.hpp"
#include "runtime/execution_context.hpp"
#include "sim/clock_model.hpp"
#include "sim/disk.hpp"
#include "sim/executor.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace retro::grid {

enum class Mode : uint8_t {
  kOriginal,  ///< unmodified Hazelcast: no HLC, no window-log
  kHlcOnly,   ///< HLC implanted in RPCs, window-log disabled ("off")
  kFull,      ///< HLC + window-log ("on")
};

struct MemberConfig {
  Mode mode = Mode::kFull;

  // --- request costs ---
  TimeMicros putServiceMicros = 150;
  TimeMicros getServiceMicros = 100;
  /// CPU per put for the window-log append (allocation + copy of old
  /// and new values into the log).
  TimeMicros logAppendMicros = 25;

  // --- snapshot costs ---
  /// Per-entry CPU for copying a partition (keys locked meanwhile).
  double copyMicrosPerEntry = 0.3;
  /// Per-entry CPU for traversing the window-log back to the target.
  double traverseMicrosPerEntry = 2.0;
  /// CPU per index probe of the indexed diff engine (sparse-index /
  /// key-chain binary searches and candidate keys examined).
  double indexProbeMicros = 0.05;

  /// Total window-log budget on this member, divided across the
  /// partition logs it owns (the paper's "bounded by a user-specified
  /// maximum size", 2 GB in §VI).
  uint64_t logBudgetBytes = 2ull << 30;

  sim::DiskConfig disk{.readMBps = 200, .writeMBps = 160, .seekMicros = 100};

  // --- snapshot-collection fault tolerance (initiator side) ---
  /// Per-member ack timeout before the start message is re-sent
  /// (0 = legacy fire-and-forget collection).
  TimeMicros snapshotRequestTimeoutMicros = 0;
  /// Total kSnapshotStart transmissions per member before the initiator
  /// marks it unavailable (kTimedOut) and settles for a partial snapshot.
  /// A timed-out start is re-sent at once.
  uint32_t snapshotMaxAttempts = 3;
};

class GridMember {
 public:
  GridMember(NodeId id, runtime::ExecutionContext& ctx,
             hlc::PhysicalClock& clock, const PartitionTable& table,
             MemberConfig config);

  NodeId id() const { return id_; }
  Mode mode() const { return config_.mode; }

  core::Retroscope& retroscope() { return retroscope_; }
  const core::Retroscope& retroscope() const { return retroscope_; }
  core::SnapshotStore& snapshots() { return snapshotStore_; }
  sim::Executor& executor() { return executor_; }

  /// Initiate a distributed snapshot from this member: snapshot() with
  /// target = the current HLC time, snapshot(t) for a past target
  /// (§IV-B).  `done` fires when every member has acked.
  using SnapshotCallback = std::function<void(const core::SnapshotSession&)>;
  core::SnapshotId initiateSnapshot(hlc::Timestamp target,
                                    SnapshotCallback done);
  core::SnapshotId initiateSnapshotNow(SnapshotCallback done);

  /// Bulk-load without network/time (bench setup).
  void preload(const Key& key, Value value);

  /// Begin periodic heartbeating to the other members.
  void startHeartbeats();

  static std::string partitionLogName(uint32_t partition);

  uint64_t putsProcessed() const { return putsProcessed_; }
  uint64_t queuedBehindLock() const { return queuedBehindLock_; }
  uint64_t snapshotsCompleted() const { return snapshotsCompleted_; }
  /// Snapshot-start messages answered from the completed-ack cache or
  /// ignored because the snapshot is already executing (initiator
  /// retries are idempotent).
  uint64_t duplicateSnapshotStarts() const { return duplicateSnapshotStarts_; }
  /// Received messages dropped undelivered: truncated, trailing bytes,
  /// or a type this member does not serve.
  uint64_t malformedMessages() const { return malformedMessages_; }

  /// Running totals over every partition window-log diff computed on
  /// this member, and the number of diff calls folded in.
  const log::DiffStats& diffTotals() const { return diffTotals_; }
  uint64_t diffCalls() const { return diffCalls_; }

  /// Primary data of one owned partition (tests).
  const std::unordered_map<Key, Value>* partitionData(uint32_t p) const;

  /// Attach a causality trace (fuzz harness); null disables recording.
  /// Only meaningful outside Mode::kOriginal (no HLC there).
  void setTrace(sim::CausalityTrace* trace) { trace_ = trace; }

 private:
  struct PartitionState {
    std::unordered_map<Key, Value> data;
    bool locked = false;
    std::deque<std::function<void()>> queued;
  };

  struct ActiveSnapshot {
    core::SnapshotRequest request;
    NodeId initiator = 0;
    /// Owned partitions not yet snapshotted; processed one at a time so
    /// snapshot work interleaves with normal operations (fine-grained
    /// concurrency control, §IV-B).
    std::vector<uint32_t> pendingPartitions;
    bool outOfReach = false;
    uint64_t snapshotBytes = 0;
    std::unordered_map<Key, Value> state;  // merged partition copies
    hlc::Timestamp captureTime;
  };

  /// A request handler: runs on the executor with the sender and the
  /// decoded body.
  template <typename Body>
  using Handler = void (GridMember::*)(NodeId from, Body body);

  void onMessage(sim::Message&& msg);
  /// The receive path every served type shares: decode-or-reject, then
  /// queue `handler` on the executor behind `cost` plus the HLC add-on.
  /// Outside Mode::kOriginal the task ticks the HLC and records the
  /// receive in the trace before it handles.
  template <typename Body>
  void serve(const sim::Message& msg, TimeMicros cost, Handler<Body> handler);
  hlc::Timestamp writeHeader(ByteWriter& w);
  void send(NodeId to, uint32_t type,
            const std::function<void(ByteWriter&)>& body);

  void handlePut(NodeId from, MapPutBody body);
  void applyPut(NodeId from, const MapPutBody& body, uint32_t partition);
  void handleGet(NodeId from, MapGetBody body);
  void handleBackup(NodeId from, BackupReplicateBody body);
  void handleHeartbeat(NodeId /*from*/, HeartbeatBody /*body*/) {}
  void handleSnapshotStart(NodeId from, GridSnapshotStartBody body);
  void handleSnapshotAck(NodeId from, GridSnapshotAckBody body);

  void runNextPartitionSnapshot(core::SnapshotId id);
  void runPartitionSnapshot(core::SnapshotId id, uint32_t partition);
  void memberSnapshotDone(core::SnapshotId id);
  void sendSnapshotStart(core::SnapshotId id, NodeId member);
  void onStartTimeout(core::SnapshotId id, NodeId member, uint64_t generation);
  void finishSession(core::SnapshotId id, core::SnapshotSession& session);

  void heartbeatTick();

  NodeId id_;
  runtime::ExecutionContext* ctx_;
  const PartitionTable* table_;
  MemberConfig config_;
  sim::CausalityTrace* trace_ = nullptr;

  std::unique_ptr<sim::SimDisk> disk_;
  sim::Executor executor_;
  core::Retroscope retroscope_;

  std::map<uint32_t, PartitionState> owned_;
  std::map<uint32_t, std::unordered_map<Key, Value>> backups_;

  core::SnapshotStore snapshotStore_;
  std::map<core::SnapshotId, ActiveSnapshot> activeSnapshots_;
  // Initiator-side session tracking (any member can initiate).
  std::map<core::SnapshotId, core::SnapshotSession> sessions_;
  std::map<core::SnapshotId, SnapshotCallback> callbacks_;
  /// Per-(session, member) retry state while awaiting a snapshot ack;
  /// generation counts invalidate stale timeout events.
  struct PendingStart {
    uint32_t attempts = 0;
    uint64_t generation = 0;
  };
  std::map<std::pair<core::SnapshotId, NodeId>, PendingStart> pendingStarts_;
  /// Resolved snapshots, kept to answer duplicate start messages
  /// idempotently with the original outcome.
  std::map<core::SnapshotId, core::SnapshotAck> completedAcks_;
  core::SnapshotIdAllocator idAlloc_;

  uint64_t heartbeatSeq_ = 0;
  bool heartbeating_ = false;

  uint64_t putsProcessed_ = 0;
  uint64_t queuedBehindLock_ = 0;
  uint64_t snapshotsCompleted_ = 0;
  uint64_t duplicateSnapshotStarts_ = 0;
  uint64_t malformedMessages_ = 0;
  log::DiffStats diffTotals_;
  uint64_t diffCalls_ = 0;
};

}  // namespace retro::grid
