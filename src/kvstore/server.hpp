// A Voldemort-like storage node (§IV-A): BDB-JE-like storage engine
// underneath, Retroscope window-log + HLC instrumentation on the write
// path, and the three-stage snapshot execution of Fig. 8 (data copy ->
// window-log compaction -> window-log application) for full, rolling and
// incremental snapshots.
//
// Simulation cost model: every modelled charge comes from SimCosts
// (sim_costs.hpp).  Requests occupy the node's Executor for a service
// time; snapshot and query work runs in bounded chunks on the same
// executor and disk as foreground traffic, so the throughput dips of
// Fig. 12 emerge from contention.  The Executor and SimDisk charge only
// under the simulator, which alone also runs SimCosts' JVM-heap model
// (GC slowdown and, past the limit, an OutOfMemory crash; Fig. 13).
//
// By job: server.cpp (construction, daemons, crash/restart, receive,
// put, get, progress), server_snapshot.cpp (Fig. 8), server_query.cpp,
// server_storage.cpp (WAL replay, rot, scrub, repair),
// server_membership.cpp (gossip, join, leave), server_transfer.cpp.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/metrics.hpp"
#include "common/random.hpp"
#include "core/retroscope.hpp"
#include "core/snapshot.hpp"
#include "core/snapshot_store.hpp"
#include "core/temporal_query.hpp"
#include "log/archive.hpp"
#include "log/wal.hpp"
#include "kvstore/messages.hpp"
#include "kvstore/ring.hpp"
#include "kvstore/sim_costs.hpp"
#include "runtime/execution_context.hpp"
#include "sim/clock_model.hpp"
#include "sim/disk.hpp"
#include "sim/executor.hpp"
#include "sim/memory_model.hpp"
#include "sim/network.hpp"
#include "sim/storage_faults.hpp"
#include "sim/trace.hpp"
#include "storage/bdb_store.hpp"

namespace retro::kv {

struct ServerConfig {
  /// Master switch for Retroscope instrumentation (HLC stays on — the
  /// protocol needs timestamps — but window-log appends are skipped),
  /// used for the "unmodified Voldemort" baselines of Figs. 10/11.
  bool windowLogEnabled = true;

  log::WindowLogConfig logConfig{
      .maxEntries = 0,
      .maxBytes = 1536ull << 20,  // default retention budget
      .maxAgeMillis = 0,
  };

  // --- request costs ---
  TimeMicros putServiceMicros = 200;
  TimeMicros getServiceMicros = 140;
  /// Extra CPU per put for the window-log append + HLC bookkeeping.
  TimeMicros logAppendMicros = 8;
  /// Extra append CPU proportional to heap utilization: each window-log
  /// allocation costs more GC work when the heap holds more live data
  /// (the reason the paper's instrumentation overhead grows from ~1.8%
  /// on a 100 K-item store to ~10% at 10 M items, Fig. 10). 0 disables.
  double logGcCouplingMicros = 0;

  // --- snapshot costs ---
  /// CPU charged while copying the database, per MB (checksumming,
  /// page-cache churn).
  double copyCpuMicrosPerMB = 3200;
  /// Bytes of work in one executor task of a snapshot or a temporal
  /// query; foreground ops run between chunks.  It counts the key + value
  /// bytes a full snapshot copies or a query folds, the key + old + new
  /// value bytes of the window-log entries a compaction or a replay walks
  /// (a key-chain probe counts each probed key and twice each entry it
  /// finds), and key + twice the value bytes per delta entry a snapshot
  /// applies (twice that in a query's replay).
  uint64_t copyChunkBytes = 256ull << 10;
  double compactionMicrosPerEntry = 0.4;
  double applyMicrosPerEntry = 1.0;
  /// CPU per index probe of the indexed diff engine: a sparse-index or
  /// key-chain binary search, or a candidate key examined.  Far cheaper
  /// than materializing an entry, but not free.
  double indexProbeMicros = 0.05;

  // --- concurrent-snapshot optimization (§III-A) ---
  /// Convert an incoming full snapshot to an incremental one when
  /// another snapshot is already executing or recently completed nearby.
  bool convertConcurrentSnapshots = true;

  // --- memory model ---
  sim::MemoryModelConfig memory{.heapLimitBytes = 8ull << 30};
  /// JVM object bloat applied to raw index bytes.
  double jvmOverheadFactor = 2.2;
  /// Heap used by the process before any data.
  uint64_t baselineHeapBytes = 200ull << 20;

  store::BdbConfig bdb;
  sim::DiskConfig disk{.readMBps = 90, .writeMBps = 70, .seekMicros = 150};

  // --- window-log disk persistence (§III-A extension) ---
  struct ArchiveOptions {
    bool enabled = false;
    /// How often the background task spills old entries to disk.
    TimeMicros periodMicros = 5 * kMicrosPerSecond;
    /// Entries younger than this stay in memory.
    int64_t keepInMemoryMillis = 10'000;
  };
  ArchiveOptions archive;

  // --- crash recovery ---
  struct RecoveryOptions {
    /// Journal window-log appends durably (WAL semantics, folded into
    /// logAppendMicros) and checkpoint the log periodically, so a
    /// restarted node recovers its full window-log with a bounded tail
    /// replay.  Off: the window-log restarts empty and the floor rises to
    /// the recovery point — pre-crash targets become out-of-reach.
    bool persistWindowLog = true;
  };
  RecoveryOptions recovery;

  // --- storage integrity (checksummed durable formats + repair) ---
  struct IntegrityOptions {
    /// CRC32C-frame every durable record (WAL journal frames, BDB
    /// segment records, checkpoint images) and verify them during
    /// recovery.  Off, injected corruption goes undetected and replays
    /// into recovered state — the fuzz harness's negative control for
    /// the "detected or correct, never silently wrong" oracle.
    bool checksums = true;
    /// Simulated CPU per MB for computing/verifying checksums on the
    /// snapshot copy path and the recovery scan.
    double checksumMicrosPerMB = 150;
  };
  IntegrityOptions integrity;

  /// Corruption fault model (all probabilities default to zero).  The
  /// per-server model derives its stream from this seed and the node id.
  sim::StorageFaultConfig storageFaults;

  /// Elastic membership (gossip, join/leave, key-range rebalance); off,
  /// the cluster runs on the static ring with no gossip traffic.
  MembershipConfig membership;
};

class VoldemortServer {
 public:
  /// Runs against any ExecutionContext: the deterministic simulator
  /// (SimContext) or the thread-per-node realtime runtime.  All of the
  /// node's callbacks execute on its owner thread, so the protocol logic
  /// stays single-threaded in both modes.
  VoldemortServer(NodeId id, runtime::ExecutionContext& ctx,
                  hlc::PhysicalClock& clock, ServerConfig config);

  NodeId id() const { return id_; }
  bool isAlive() const { return alive_; }

  core::Retroscope& retroscope() { return retroscope_; }
  const core::Retroscope& retroscope() const { return retroscope_; }
  store::BdbStore& bdb() { return *bdb_; }
  const store::BdbStore& bdb() const { return *bdb_; }
  core::SnapshotStore& snapshots() { return snapshotStore_; }
  const core::SnapshotStore& snapshots() const { return snapshotStore_; }
  sim::Executor& executor() { return executor_; }
  sim::SimDisk& disk() { return *disk_; }

  /// Name of the window-log used for the data store.
  static constexpr const char* kStoreLog = "store";

  /// Bulk-load an item without network/timing (test & bench setup).
  void preload(const Key& key, Value value);

  /// Crash the node (drops all messages from now on).  In-flight
  /// snapshot executions are abandoned; the persisted max-HLC is
  /// captured so a restart never regresses the clock.
  void crash();

  /// Recover from a crash: replay durable state (BDB segments from disk;
  /// window-log checkpoint + journal tail when recovery.persistWindowLog)
  /// at simulated disk/CPU cost, re-seed the HLC from the persisted
  /// maximum, reconnect, and resume serving.  `done` fires when the node
  /// is serving again; no-op if the node is already alive.
  void restart(std::function<void()> done = {});

  /// Consistent reset (§IX): replace the live database with the contents
  /// of a stored snapshot — "the database needs to be closed, the BDB
  /// files copied from the snapshot location into the environment
  /// location, and the database reopened".  `done` fires when the store
  /// is serving again.
  void restoreFromSnapshot(core::SnapshotId id,
                           std::function<void(Status)> done);

  /// The disk archive of spilled window-log history (null unless
  /// config.archive.enabled).
  const log::LogArchive* archive() const { return archive_.get(); }

  /// Attach a causality trace (fuzz harness); null disables recording.
  void setTrace(sim::CausalityTrace* trace) { trace_ = trace; }

  /// Observer invoked for every window-log append on this node,
  /// including repair/tombstone appends (the fuzz harness's shadow
  /// history: a god-view record that stays sound across log resets).
  void setAppendObserver(std::function<void(const log::Entry&)> observer) {
    appendObserver_ = std::move(observer);
  }

  /// Observer invoked when a snapshot's content is fixed (state capture
  /// for full snapshots, the delta for others).  The fuzz oracle bounds
  /// the shadow history a snapshot can reflect with it: rebalance grafts
  /// append history in the past, after the capture.
  void setSnapshotCaptureObserver(std::function<void(core::SnapshotId)> obs) {
    captureObserver_ = std::move(obs);
  }

  /// Repair topology: the ring (for per-key preference lists) and the
  /// peer servers a scrub may ask to rebuild quarantined keys.
  /// `replicas` is the replication factor keys were written with.
  void setRepairTopology(const Ring* ring, std::vector<NodeId> peers,
                         size_t replicas) {
    ring_ = ring;
    repairPeers_ = std::move(peers);
    replicationFactor_ = replicas;
  }

  /// This node's corruption fault model (fuzz fault injector arms it).
  sim::StorageFaultModel& storageFaults() { return *faults_; }
  const sim::StorageFaultModel& storageFaults() const { return *faults_; }

  /// storage.* integrity counters: frames checked, corruptions
  /// detected, segments quarantined, keys/ranges repaired, ...
  const Counters& storageCounters() const { return storageCounters_; }

  /// Keys quarantined by the recovery scrub and not yet repaired; while
  /// non-empty the node refuses snapshot requests with kCorrupted.
  size_t quarantinedKeyCount() const { return quarantine_.size(); }

  /// The durable journal behind the window-log (tests / fault hooks);
  /// null unless recovery.persistWindowLog.
  log::WalJournal* wal() { return wal_.get(); }

  uint64_t putsProcessed() const { return putsProcessed_; }
  uint64_t getsProcessed() const { return getsProcessed_; }
  /// Temporal query requests answered (successfully or with a refusal).
  uint64_t queriesServed() const { return queriesServed_; }
  /// Replay accounting accumulated over every temporal query served.
  const core::ReplayStats& queryReplayTotals() const {
    return queryReplayTotals_;
  }
  uint64_t conflictsDetected() const { return conflictsDetected_; }
  uint64_t snapshotsCompleted() const { return snapshotsCompleted_; }
  uint64_t snapshotsConverted() const { return snapshotsConverted_; }
  uint64_t recoveries() const { return recoveries_; }
  /// Snapshot requests answered from the completed-ack cache (duplicate
  /// deliveries from initiator retries).
  uint64_t duplicateSnapshotRequests() const {
    return duplicateSnapshotRequests_;
  }
  /// Received messages dropped undelivered: every one hlc::decodeMessage
  /// rejects, and every type this node does not serve.
  uint64_t malformedMessages() const { return malformedMessages_; }

  /// Running totals over every window-log diff computed on this node,
  /// and the number of diff calls folded in (bench/metrics reporting).
  const log::DiffStats& diffTotals() const { return diffTotals_; }
  uint64_t diffCalls() const { return diffCalls_; }

  // --- elastic membership (gossip, join/leave, rebalance) ---

  /// Arm the gossip/rebalance agent.  Genesis members pass the initial
  /// view (which contains them); spare nodes pass the same view (which
  /// does not) and stay dormant until beginJoin().  `adminId` receives a
  /// view push on every epoch change so future snapshot sessions span
  /// the current members.  No-op unless config.membership.enabled.
  void configureMembership(const MembershipView& genesis, NodeId adminId,
                           size_t ringVirtualNodes);

  /// Ask `seedMember` for admission and start receiving key-range
  /// transfers; the node activates when every source finished (or the
  /// join timeout abandons the stragglers, moving the rebalance floor).
  void beginJoin(NodeId seedMember);

  /// Graceful departure: drain owned key ranges (values + window-log
  /// history) to the members inheriting them, announce kLeft, disconnect.
  void beginLeave();

  const MembershipView& view() const { return view_; }
  uint64_t viewEpoch() const { return view_.epoch(); }
  bool isJoining() const { return joining_; }
  bool hasLeft() const { return left_; }
  /// Earliest time a snapshot through this node can still be a faithful
  /// cut after rebalances; targets below it refuse with kRebalancing.
  hlc::Timestamp rebalanceFloor() const { return rebalanceFloor_; }
  /// membership.* counters: gossip rounds, view changes, transfers
  /// started/completed/aborted, keys/history entries migrated, ...
  const Counters& membershipCounters() const { return membershipCounters_; }

 private:
  struct ActiveSnapshot {
    core::SnapshotRequest request;
    NodeId initiator = 0;
    /// The database contents at captureTime (the closed segments in the
    /// real system), copied from `view` one chunk per executor task.
    std::unordered_map<Key, Value> stateAtCapture;
    store::BdbStore::View view;
    /// Keys grafted during the copy or compaction: unknown here at
    /// captureTime, so they stay out although their history reaches below.
    std::vector<Key> graftedSinceCapture;
    hlc::Timestamp captureTime;
    /// Compaction reads the delta through this scan one chunk per task;
    /// a full snapshot then drains it into stateAtCapture the same way.
    log::DiffScan scan;
    log::DiffMap delta;
    log::DiffStats deltaStats;
    /// Copy-stage parts still running: the hot backup and the state copy.
    uint8_t copyPartsLeft = 0;
    uint8_t stage = 0;  // 0 copy, 1 compaction, 2 application, 3 done
  };

  /// A temporal query folding the store as of t0 through `view`.
  struct ActiveQuery {
    ActiveQuery(NodeId from, uint64_t queryId, core::PartialsEvaluator eval)
        : from(from), queryId(queryId), eval(std::move(eval)) {}
    NodeId from = 0;
    uint64_t queryId = 0;
    core::PartialsEvaluator eval;
    /// The replay's work so far (the reply reports its key counts).
    core::ReplayStats stats;
    store::BdbStore::View view;
    hlc::Timestamp t0;
    /// historyGrafts_ when the view opened.
    uint64_t grafts = 0;
    bool folded = false;  ///< the store is folded; the replay runs
  };

  /// Runs on the executor with the receive's HLC time, sender and body.
  template <typename Body>
  using Handler = void (VoldemortServer::*)(hlc::Timestamp eventTs,
                                            NodeId from, Body body);

  void onMessage(sim::Message&& msg);
  /// Decode-or-reject, then queue `handler` on the executor behind the
  /// request's charge; the task ticks the HLC and traces the receive.
  template <typename Body>
  void serve(const sim::Message& msg, Handler<Body> handler);
  /// Stamp a send event's HLC onto `body` and send it to `to`.
  template <typename Body>
  void send(NodeId to, uint32_t type, const Body& body) {
    ByteWriter w;
    const hlc::Timestamp ts = retroscope_.wrapHLC(w);
    body.writeTo(w);
    const uint64_t msgId = ctx_->send(sim::Message{id_, to, type, w.take()});
    if (trace_) trace_->onSend(id_, msgId, ts);
  }

  void handlePut(hlc::Timestamp eventTs, NodeId from, PutRequestBody body);
  void handleGet(hlc::Timestamp eventTs, NodeId from, GetRequestBody body);
  /// Stamp this node's view epoch, and its view for a client that routed
  /// under an older one.
  template <typename Response>
  void stampView(Response& resp, uint64_t clientEpoch);
  void handleSnapshotRequest(hlc::Timestamp eventTs, NodeId from,
                             SnapshotRequestBody body);
  void handleQueryRequest(hlc::Timestamp eventTs, NodeId from,
                          QueryRequestBody body);
  void handleProgressRequest(hlc::Timestamp eventTs, NodeId from,
                             ProgressRequestBody body);
  void handleRepairRequest(hlc::Timestamp eventTs, NodeId from,
                           RepairRequestBody body);
  void handleRepairResponse(hlc::Timestamp eventTs, NodeId from,
                            RepairResponseBody body);

  /// Append a change to the window-log, WAL and observer together.
  void logAppend(const Key& key, OptValue oldValue, OptValue newValue,
                 hlc::Timestamp ts);
  /// Drop the window-log's history through now and re-seed the WAL.
  void truncateLogToNow();

  // --- corruption-aware recovery + scrub (storage integrity) ---
  void recoverStorage();
  void applyRotEpisode(double fraction);
  void replayWal(log::WindowLog& wlog);
  void startScrub();
  void scrubStep();
  void completeScrub();
  /// The replicas a quarantined key may be rebuilt from.
  std::vector<NodeId> repairCandidates(const Key& key) const;
  /// Take `key` out of quarantine, counting why under `counter`.
  void releaseQuarantined(const Key& key, const char* counter);

  /// One chunk of a stage: its modelled charge, and whether it was last.
  struct Chunk { TimeMicros cost = 0; bool last = false; };
  /// One chunk of snapshot or query `id`; nullopt when the stage ended
  /// without a charge (the task is gone, failed or started over).
  using ChunkStep = std::optional<Chunk> (VoldemortServer::*)(uint64_t id);
  using Stage = void (VoldemortServer::*)(uint64_t id);
  /// Every chunked stage's driver: run `step`, submit its charge, then
  /// (unless a crash came between) `step` again or, after the last, `next`.
  void runChunks(uint64_t id, ChunkStep step, Stage next);

  void startSnapshot(ActiveSnapshot active);
  /// Copy the next chunk of the state at captureTime.
  std::optional<Chunk> copyChunk(core::SnapshotId id);
  void copyPartDone(core::SnapshotId id);
  /// Start the compaction stage: scan the window-log for the delta.
  void snapshotCompaction(core::SnapshotId id);
  std::optional<Chunk> compactChunk(core::SnapshotId id);
  /// Deep retrospection through the disk archive, in one task.
  void compactThroughArchive(core::SnapshotId id);
  void snapshotApply(core::SnapshotId id);
  /// Drain a chunk of a full snapshot's delta into its state; other
  /// kinds apply theirs when stored, in one chunk.
  std::optional<Chunk> applyChunk(core::SnapshotId id);
  /// Write the applied differences to the snapshot copy, then store it.
  void writeSnapshot(core::SnapshotId id);
  void storeSnapshot(core::SnapshotId id);
  void finishSnapshot(core::SnapshotId id, core::LocalSnapshotStatus status,
                      size_t persistedBytes);
  /// finishSnapshot for a failed diff: kOutOfReach when the window-log
  /// no longer reaches, kFailed otherwise.
  void failSnapshot(core::SnapshotId id, const Status& why);
  void sendSnapshotAck(NodeId to, core::SnapshotId id,
                       core::LocalSnapshotStatus status, size_t persistedBytes);
  /// A removed snapshot's disposer: keep the larger state for the next
  /// copy, and free the rest off this thread.
  void recycle(core::LocalSnapshot&& snap);
  /// Free a recycled state no copy took for a whole checkpoint period.
  void ageRecycledState();

  /// Open (or reopen) a query's view at `t0` and forget what it folded.
  void openQueryView(ActiveQuery& q, hlc::Timestamp t0);
  /// Fold the next chunk of the store into the query or, once folded,
  /// replay the next chunk of its grid.
  std::optional<Chunk> queryChunk(uint64_t key);
  void replyQuery(uint64_t key);
  void refuseQuery(NodeId to, uint64_t queryId, const Status& why);

  void updateMemoryModel();
  void archiveTick();
  void checkpointTick();

  // --- membership / rebalance internals ---
  /// One outbound key-range stream (stop-and-wait, cumulative acks).
  struct OutboundTransfer {
    NodeId target = 0;
    bool drain = false;  ///< part of this node's leave drain
    std::vector<TransferChunkBody> chunks;
    size_t nextChunk = 0;      ///< lowest unacknowledged chunk
    uint32_t attempts = 0;     ///< sends of the current chunk
    uint64_t totalSends = 0;   ///< rewind-loop bound
    uint64_t generation = 0;   ///< timer cancellation
  };

  bool membershipEnabled() const { return config_.membership.enabled; }
  /// The ring requests are routed/repaired against: the view-derived
  /// ring once membership is on, the static cluster ring otherwise.
  const Ring* routingRing() const {
    return ownRing_ ? &*ownRing_ : ring_;
  }
  void membershipTick();
  void gossipNow();
  void pushViewTo(NodeId peer);
  /// React to any change of the local view: re-derive the routing ring,
  /// push the view to the admin, start owed transfers, optionally gossip.
  void onViewChanged(bool gossip);
  void handleGossip(hlc::Timestamp eventTs, NodeId from, GossipBody body);
  void handleJoinRequest(hlc::Timestamp eventTs, NodeId from,
                         JoinRequestBody body);
  void handleJoinResponse(hlc::Timestamp eventTs, NodeId from,
                          JoinResponseBody body);
  void handleTransferChunk(hlc::Timestamp eventTs, NodeId from,
                           TransferChunkBody body);
  void handleTransferAck(hlc::Timestamp eventTs, NodeId from,
                         TransferAckBody body);
  void maybeStartOutboundTransfers();
  /// Chunk the keys `target` inherits (per `targetRing`) into a stream.
  void startTransferTo(NodeId target, const Ring& targetRing, bool drain);
  void sendTransferChunk(uint64_t transferId);
  void transferChunkTimeout(uint64_t transferId, uint64_t generation);
  /// Drop an outbound stream, counting its outcome under `counter`.
  void endTransfer(uint64_t transferId, const char* counter);
  /// Apply one transferred item; returns true if per-key history was
  /// grafted into the window-log (caller re-syncs the WAL).
  bool applyTransferItem(const TransferItemWire& item, hlc::Timestamp eventTs,
                         hlc::Timestamp sourceFloor, uint64_t* graftedEntries);
  void armJoinTimeout();
  /// First sight of our own kJoining record: snapshot the set of sources
  /// that owe us a stream (or activate straight away if there are none).
  void noteAdmission();
  void activateSelf(bool historyIncomplete);
  void finishLeaveDrain();
  Ring ringOver(std::vector<NodeId> members) const {
    return Ring(std::move(members), ringVirtualNodes_);
  }

  // --- membership state ---
  MembershipView view_;
  std::optional<Ring> ownRing_;  ///< derived from view_'s routable members
  size_t ringVirtualNodes_ = 64;
  NodeId adminId_ = 0;
  bool hasAdmin_ = false;
  uint64_t lastPushedEpoch_ = 0;
  bool membershipStarted_ = false;
  bool joining_ = false;
  NodeId joinSeed_ = 0;
  bool joinSourcesInitialized_ = false;
  bool leaving_ = false;
  bool left_ = false;
  /// Per-peer {last seen heartbeat, local time it advanced} for the
  /// suspicion timers; heartbeat relays via any path reset them.
  std::map<NodeId, std::pair<uint64_t, TimeMicros>> lastBeat_;
  /// Sources still owing this joiner a completed stream.
  std::set<NodeId> pendingJoinSources_;
  /// Inbound streams that delivered fresh keys without history (ablated
  /// hand-off or trimmed source): activation must move the floor.
  bool sawHistorylessKeys_ = false;
  /// Joiners this node already started a stream to (per join, not
  /// cleared on view gossip; cleared by crash so a restart resumes).
  std::set<NodeId> transferTargetsStarted_;
  hlc::Timestamp rebalanceFloor_{};
  std::map<uint64_t, OutboundTransfer> outbound_;
  /// Inbound dedup: next expected chunk per transfer id.
  std::map<uint64_t, uint64_t> inboundNext_;
  uint64_t transferCounter_ = 0;
  /// Deterministic per-node stream for gossip fanout picks.
  SplitMix64 gossipRng_{0};
  Counters membershipCounters_;

  NodeId id_;
  runtime::ExecutionContext* ctx_;
  ServerConfig config_;
  sim::CausalityTrace* trace_ = nullptr;

  std::unique_ptr<sim::StorageFaultModel> faults_;
  std::unique_ptr<sim::SimDisk> disk_;
  sim::Executor executor_;
  core::Retroscope retroscope_;
  std::unique_ptr<store::BdbStore> bdb_;
  std::unordered_map<Key, VersionVector> versions_;
  std::unique_ptr<log::LogArchive> archive_;
  std::unique_ptr<log::WalJournal> wal_;
  core::SnapshotStore snapshotStore_;
  SimCosts costs_;
  std::function<void(const log::Entry&)> appendObserver_;
  std::function<void(core::SnapshotId)> captureObserver_;

  // --- quarantine / scrub state ---
  /// Keys whose durable records failed their CRC and were dropped from
  /// the index; ordered so repair batches are deterministic.
  std::set<Key> quarantine_;
  /// Replicas that answered "key does not exist" (per key); when every
  /// candidate voted absent the key is tombstoned as unrecoverable.
  std::map<Key, std::set<NodeId>> absentFrom_;
  const Ring* ring_ = nullptr;
  std::vector<NodeId> repairPeers_;
  size_t replicationFactor_ = 0;
  bool scrubActive_ = false;
  size_t scrubRound_ = 0;
  uint64_t repairGeneration_ = 0;
  size_t pendingRepairReplies_ = 0;
  Counters storageCounters_;

  std::map<core::SnapshotId, ActiveSnapshot> activeSnapshots_;
  /// The largest removed snapshot's state: a full snapshot's copy takes
  /// its nodes instead of allocating (and a remove freeing) one per key.
  /// The checkpoint daemon frees it after a whole period unused.
  std::unordered_map<Key, Value> recycledState_;
  bool recycledAged_ = false;
  /// Temporal queries still folding, by queriesServed_ at arrival.
  std::map<uint64_t, ActiveQuery> activeQueries_;
  /// Rebalance grafts so far: a graft adds history before a running
  /// query's t0 that its fold never saw, so the query starts over.
  uint64_t historyGrafts_ = 0;
  /// Converted concurrent snapshots waiting for their base to complete.
  std::map<core::SnapshotId, std::vector<ActiveSnapshot>> pendingOnBase_;
  bool alive_ = true;
  /// Bumped on every crash; executor/env tasks queued before a crash
  /// capture the value and refuse to act in a later incarnation.
  uint64_t incarnation_ = 0;
  /// HLC value at the moment of the crash (journaled with every append,
  /// so durable); restart() re-seeds the clock from it.
  hlc::Timestamp maxHlcAtCrash_{};
  /// appendToLog count at the last window-log checkpoint; the difference
  /// to the current count is the journal tail replayed at restart.
  uint64_t lastCheckpointAppendCount_ = 0;
  /// Resolved snapshot requests, kept so duplicate deliveries (initiator
  /// retries) are answered idempotently with the original outcome.
  std::map<core::SnapshotId, std::pair<core::LocalSnapshotStatus, size_t>>
      completedAcks_;

  uint64_t putsProcessed_ = 0;
  uint64_t getsProcessed_ = 0;
  uint64_t queriesServed_ = 0;
  core::ReplayStats queryReplayTotals_;
  uint64_t conflictsDetected_ = 0;
  uint64_t snapshotsCompleted_ = 0;
  uint64_t snapshotsConverted_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t duplicateSnapshotRequests_ = 0;
  uint64_t malformedMessages_ = 0;
  log::DiffStats diffTotals_;
  uint64_t diffCalls_ = 0;
};

}  // namespace retro::kv
