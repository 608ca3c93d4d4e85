#include "kvstore/server.hpp"

#include <cmath>
#include <type_traits>

#include "common/random.hpp"
#include "runtime/retry.hpp"

namespace retro::kv {

namespace {
/// Per-node corruption fault stream: one shared scenario seed, distinct
/// deterministic streams per server.
sim::StorageFaultConfig nodeFaultConfig(sim::StorageFaultConfig cfg,
                                        NodeId id) {
  cfg.seed ^= 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(id) + 1);
  return cfg;
}

/// How often the checkpoint daemon folds the journal tail.
constexpr TimeMicros kCheckpointPeriodMicros = 2 * kMicrosPerSecond;
}  // namespace

VoldemortServer::VoldemortServer(NodeId id, runtime::ExecutionContext& ctx,
                                 hlc::PhysicalClock& clock,
                                 ServerConfig config)
    : id_(id),
      ctx_(&ctx),
      config_(std::move(config)),
      faults_(std::make_unique<sim::StorageFaultModel>(
          nodeFaultConfig(config_.storageFaults, id))),
      disk_(std::make_unique<sim::SimDisk>(ctx, config_.disk, id)),
      executor_(ctx, id),
      retroscope_(clock, config_.logConfig),
      bdb_(std::make_unique<store::BdbStore>(ctx, *disk_, config_.bdb, id)),
      memory_(config_.memory) {
  disk_->attachFaults(faults_.get());
  if (config_.recovery.persistWindowLog) {
    wal_ = std::make_unique<log::WalJournal>();
  }
  memory_.setOnOutOfMemory([this] { crash(); });
  snapshotStore_.setDisposer([this](core::LocalSnapshot&& snap) {
    // Keep the larger state's nodes for the next copy; the rest is freed
    // off this thread.
    if (snap.state.size() > recycledState_.size()) {
      std::swap(snap.state, recycledState_);
      recycledAged_ = false;
    }
    ctx_->dispose(std::make_shared<core::LocalSnapshot>(std::move(snap)));
  });
  ctx_->registerNode(id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
  if (config_.archive.enabled) {
    archive_ = std::make_unique<log::LogArchive>();
    ctx_->scheduleDaemon(id_, config_.archive.periodMicros,
                         [this] { archiveTick(); });
  }
  if (config_.recovery.persistWindowLog) {
    ctx_->scheduleDaemon(id_, kCheckpointPeriodMicros,
                         [this] { checkpointTick(); });
  }
}

void VoldemortServer::archiveTick() {
  // Reschedules even while crashed so the daemon survives a restart.
  // Pause spilling while snapshots run: the live window must keep every
  // entry a snapshot in flight may still need (it is unbounded anyway).
  if (alive_ && activeSnapshots_.empty() && pendingOnBase_.empty()) {
    const int64_t cutoff =
        retroscope_.now().l - config_.archive.keepInMemoryMillis;
    if (cutoff > 0) {
      const uint64_t bytes = archive_->archiveThrough(
          retroscope_.getLog(kStoreLog), hlc::fromPhysicalMillis(cutoff));
      if (bytes > 0) disk_->write(bytes, [] {});
      updateMemoryModel();
    }
  }
  ctx_->scheduleDaemon(id_, config_.archive.periodMicros, [this] { archiveTick(); });
}

void VoldemortServer::checkpointTick() {
  // A recycled state no copy took for a whole period is freed, so its
  // memory serves other allocations again.
  if (!recycledState_.empty() && activeSnapshots_.empty()) {
    if (recycledAged_) {
      ctx_->dispose(std::make_shared<std::unordered_map<Key, Value>>(
          std::exchange(recycledState_, {})));
    }
    recycledAged_ = !recycledAged_;
  }
  if (alive_) {
    // Fold the journal tail into an on-disk checkpoint of the window-log
    // so a restart replays only the appends made since this point.
    const log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
    const uint64_t appends = retroscope_.appendCount();
    if (appends != lastCheckpointAppendCount_) {
      // Fold only the journal tail — the bytes appended since the last
      // checkpoint, sized via the log's mean entry size.  Rewriting the
      // whole window-log every period would saturate the (serial) disk
      // under write-heavy load and stall snapshot copies behind it.
      const uint64_t tail = appends - lastCheckpointAppendCount_;
      const uint64_t entryBytes =
          wlog.entryCount() > 0 ? wlog.accountedBytes() / wlog.entryCount()
                                : 64;
      disk_->write(tail * entryBytes, [] {});
      lastCheckpointAppendCount_ = appends;
      // The journal tail's frames are absorbed into the checkpoint
      // image; the journal file is truncated.
      if (wal_) wal_->foldIntoCheckpoint();
    }
  }
  ctx_->scheduleDaemon(id_, kCheckpointPeriodMicros,
                       [this] { checkpointTick(); });
}

void VoldemortServer::preload(const Key& key, Value value) {
  bdb_->put(key, std::move(value));
  VersionVector v;
  v.increment(id_);
  versions_[key] = std::move(v);
}

void VoldemortServer::crash() {
  if (!alive_) return;
  alive_ = false;
  ++incarnation_;
  // The HLC value rides along with every journaled append, so the
  // maximum issued before the crash is durable.
  maxHlcAtCrash_ = std::max(maxHlcAtCrash_, retroscope_.now());
  // In-flight snapshot executions die with the process; initiator-side
  // retries re-request them after recovery (idempotently).
  activeSnapshots_.clear();
  pendingOnBase_.clear();
  activeQueries_.clear();
  // Rebalance streams die too.  Outbound ones restart from chunk 0 after
  // recovery (applications are idempotent); losing the inbound progress
  // map makes this receiver ack "next expected = 0", rewinding senders.
  outbound_.clear();
  transferTargetsStarted_.clear();
  inboundNext_.clear();
  // Crash-point storage physics against the journal's real bytes: any
  // frame whose fsync lied (and everything after it) never reached the
  // platter, and the last surviving frame may be torn mid-write.
  if (wal_) {
    const size_t lost = wal_->dropUnsyncedFrames();
    if (lost > 0) {
      storageCounters_.add("storage.wal_frames_lost_fsync", lost);
    }
    if (faults_->tearOnCrash() &&
        wal_->tearLastFrame(static_cast<size_t>(faults_->pick(1u << 12)))) {
      storageCounters_.add("storage.wal_frames_torn");
    }
  }
  ctx_->disconnect(id_);
}

void VoldemortServer::restart(std::function<void()> done) {
  if (alive_) {
    if (done) ctx_->schedule(id_, 0, std::move(done));
    return;
  }
  const uint64_t inc = incarnation_;
  // Recovery cost 1: re-open the store — BDB-JE recovers its in-memory
  // index by reading the log segments back from disk.
  const uint64_t segmentBytes = bdb_->totalSegmentBytes();
  // Recovery cost 2: reload the last window-log checkpoint, then replay
  // the journal tail written since.
  uint64_t logBytes = 0;
  TimeMicros replayCpu = 0;
  if (config_.recovery.persistWindowLog) {
    // CPU per journal-tail entry replayed at restart.
    constexpr double kReplayMicrosPerEntry = 1.5;
    logBytes = retroscope_.getLog(kStoreLog).accountedBytes();
    const uint64_t tail =
        retroscope_.appendCount() - lastCheckpointAppendCount_;
    replayCpu = static_cast<TimeMicros>(std::llround(
        static_cast<double>(tail) * kReplayMicrosPerEntry));
  }
  // Recovery cost 3: verifying the CRC32C of every record and journal
  // frame read back (hardware CRC runs at GB/s — cheap, not free).
  if (config_.integrity.checksums) {
    replayCpu += static_cast<TimeMicros>(std::llround(
        static_cast<double>(segmentBytes + logBytes) *
        config_.integrity.checksumMicrosPerMB / 1e6));
  }
  disk_->read(segmentBytes + logBytes, [this, inc, replayCpu,
                                        done = std::move(done)]() mutable {
    executor_.submit(replayCpu, [this, inc, done = std::move(done)] {
      if (alive_ || incarnation_ != inc) return;  // crashed again meanwhile
      recoverStorage();
      // Never issue a timestamp below one issued before the crash, even
      // if the physical clock restarted behind.
      retroscope_.clock().restore(maxHlcAtCrash_);
      alive_ = true;
      ++recoveries_;
      ctx_->registerNode(
          id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
      updateMemoryModel();
      if (!quarantine_.empty()) startScrub();
      if (membershipEnabled() && membershipStarted_ && !left_) {
        // Re-stamp the suspicion timers (the whole outage would read as
        // everyone's silence) and resume interrupted rebalances.
        lastBeat_.clear();
        onViewChanged(/*gossip=*/true);
        if (joining_) armJoinTimeout();
        if (leaving_) {
          leaving_ = false;
          beginLeave();
        }
      }
      if (done) done();
    });
  });
}

void VoldemortServer::restoreFromSnapshot(core::SnapshotId id,
                                          std::function<void(Status)> done) {
  auto materialized = snapshotStore_.materialize(id);
  if (!materialized.isOk()) {
    ctx_->schedule(id_, 0, [done = std::move(done),
                       status = materialized.status()] { done(status); });
    return;
  }
  // Size of the files to copy back into the environment.
  uint64_t bytes = 0;
  for (const auto& [k, v] : materialized.value()) bytes += k.size() + v.size();

  disk_->read(bytes, [this, bytes, state = std::move(materialized).value(),
                      done = std::move(done)]() mutable {
    disk_->write(bytes, [this, state = std::move(state),
                         done = std::move(done)]() mutable {
      // Reopen on the restored files: rebuild the store and drop window
      // log history (it describes the abandoned timeline).
      bdb_ = std::make_unique<store::BdbStore>(*ctx_, *disk_, config_.bdb, id_);
      for (auto& [k, v] : state) bdb_->put(k, v);
      retroscope_.getLog(kStoreLog).truncateThrough(retroscope_.now());
      // The restored files are fresh, checksummed copies; any quarantine
      // belongs to the abandoned timeline.
      quarantine_.clear();
      absentFrom_.clear();
      scrubActive_ = false;
      ++repairGeneration_;
      if (wal_) wal_->reset(retroscope_.getLog(kStoreLog).nextSeq());
      updateMemoryModel();
      done(Status::ok());
    });
  });
}

void VoldemortServer::send(NodeId to, uint32_t type,
                           const std::function<void(ByteWriter&)>& body) {
  ByteWriter w;
  const hlc::Timestamp ts = retroscope_.wrapHLC(w);
  body(w);
  const uint64_t msgId = ctx_->send(sim::Message{id_, to, type, w.take()});
  if (trace_) trace_->onSend(id_, msgId, ts);
}

template <typename Body, typename Cost>
void VoldemortServer::serve(const sim::Message& msg, Cost cost,
                            Handler<Body> handler) {
  auto received = hlc::decodeMessage<Body>(msg.payload);
  if (!received) {
    ++malformedMessages_;
    return;
  }
  TimeMicros micros = 0;
  if constexpr (std::is_invocable_v<Cost, const Body&>) {
    micros = cost(received->body);
  } else {
    micros = cost;
  }
  // Tasks queued behind the executor check the incarnation as well as
  // liveness: a message accepted before a crash must not execute inside a
  // later incarnation after restart.
  executor_.submit(micros, [this, inc = incarnation_, from = msg.from,
                            msgId = msg.msgId, handler,
                            received = std::move(*received)]() mutable {
    if (!alive_ || incarnation_ != inc) return;
    const hlc::Timestamp eventTs = retroscope_.timeTick(received.ts);
    if (trace_) trace_->onRecv(id_, msgId, eventTs);
    (this->*handler)(eventTs, from, std::move(received.body));
  });
}

namespace {
// Modelled CPU per received request, charged by the executor under the
// simulator only.
constexpr TimeMicros kSnapshotRequestMicros = 500;
constexpr TimeMicros kQueryRequestMicros = 300;
constexpr TimeMicros kRepairMicros = 200;  // request and response
constexpr TimeMicros kJoinRequestMicros = 80;
constexpr TimeMicros kMembershipMicros = 60;  // gossip and join response
constexpr TimeMicros kControlMicros = 50;     // progress and transfer ack

/// Applying a transfer chunk costs roughly what the equivalent puts would.
TimeMicros transferChunkMicros(const TransferChunkBody& body) {
  return 150 + static_cast<TimeMicros>(body.items.size()) * 20;
}
}  // namespace

TimeMicros VoldemortServer::putMicros() const {
  if (!config_.windowLogEnabled) return config_.putServiceMicros;
  return config_.putServiceMicros + config_.logAppendMicros +
         static_cast<TimeMicros>(config_.logGcCouplingMicros *
                                 memory_.utilization());
}

void VoldemortServer::onMessage(sim::Message&& msg) {
  if (!alive_) return;
  using S = VoldemortServer;
  switch (msg.type) {
    case kPutRequest: return serve(msg, putMicros(), &S::handlePut);
    case kGetRequest:
      return serve(msg, config_.getServiceMicros, &S::handleGet);
    case kSnapshotRequest:
      return serve(msg, kSnapshotRequestMicros, &S::handleSnapshotRequest);
    case kQueryRequest:
      return serve(msg, kQueryRequestMicros, &S::handleQueryRequest);
    case kProgressRequest:
      return serve(msg, kControlMicros, &S::handleProgressRequest);
    case kRepairRequest:
      return serve(msg, kRepairMicros, &S::handleRepairRequest);
    case kRepairResponse:
      return serve(msg, kRepairMicros, &S::handleRepairResponse);
    case kGossip: return serve(msg, kMembershipMicros, &S::handleGossip);
    case kJoinRequest:
      return serve(msg, kJoinRequestMicros, &S::handleJoinRequest);
    case kJoinResponse:
      return serve(msg, kMembershipMicros, &S::handleJoinResponse);
    case kTransferChunk:
      return serve(msg, transferChunkMicros, &S::handleTransferChunk);
    case kTransferAck: return serve(msg, kControlMicros, &S::handleTransferAck);
    default: ++malformedMessages_;  // a type this node does not serve
  }
}

void VoldemortServer::handlePut(hlc::Timestamp eventTs, NodeId from,
                                PutRequestBody body) {
  ++putsProcessed_;
  bool conflict = false;

  // Stale-view redirect: answer with our epoch, and attach the full view
  // when the client routed under an older one so it can re-derive its
  // ring before retrying/continuing.
  const auto stampView = [&](PutResponseBody& resp) {
    if (!membershipEnabled() || !membershipStarted_) return;
    resp.viewEpoch = view_.epoch();
    if (body.viewEpoch < view_.epoch()) {
      resp.view = view_;
      membershipCounters_.add("membership.stale_view_replies");
    }
  };

  auto& stored = versions_[body.key];
  const Occurred cmp = body.version.compare(stored);
  if (cmp == Occurred::kConcurrent) {
    // Conflict: resolve last-write-wins on HLC order (the write being
    // applied now is the latest event this node has seen) and merge the
    // vectors so causality is preserved going forward (§VIII).
    ++conflictsDetected_;
    conflict = true;
    body.version.merge(stored);
    stored = body.version;
  } else if (cmp == Occurred::kBefore || cmp == Occurred::kEqual) {
    // Stale write: ignore the data, report success (idempotent replay).
    send(from, kPutResponse, [&](ByteWriter& w) {
      PutResponseBody resp;
      resp.requestId = body.requestId;
      stampView(resp);
      resp.writeTo(w);
    });
    return;
  } else {
    stored = body.version;
  }

  const OptValue old = bdb_->get(body.key);
  bdb_->put(body.key, body.value);
  if (config_.windowLogEnabled) {
    logAppend(body.key, old, body.value, eventTs);
  }
  // A fresh client write supersedes a quarantined record: the key's
  // durable state is trustworthy again without a replica round-trip.
  if (!quarantine_.empty() && quarantine_.erase(body.key) > 0) {
    storageCounters_.add("storage.keys_superseded");
    absentFrom_.erase(body.key);
    if (quarantine_.empty()) completeScrub();
  }
  updateMemoryModel();
  if (!alive_) return;  // the put that broke the heap's back

  send(from, kPutResponse, [&](ByteWriter& w) {
    PutResponseBody resp;
    resp.requestId = body.requestId;
    resp.conflictDetected = conflict;
    stampView(resp);
    resp.writeTo(w);
  });
}

void VoldemortServer::handleGet(hlc::Timestamp /*eventTs*/, NodeId from,
                                GetRequestBody body) {
  ++getsProcessed_;
  GetResponseBody resp;
  resp.requestId = body.requestId;
  resp.value = bdb_->get(body.key);
  auto it = versions_.find(body.key);
  if (it != versions_.end()) resp.version = it->second;
  if (membershipEnabled() && membershipStarted_) {
    resp.viewEpoch = view_.epoch();
    if (body.viewEpoch < view_.epoch()) {
      resp.view = view_;
      membershipCounters_.add("membership.stale_view_replies");
    }
  }
  send(from, kGetResponse, [&](ByteWriter& w) { resp.writeTo(w); });
}

void VoldemortServer::updateMemoryModel() {
  const double dataBytes =
      static_cast<double>(bdb_->liveDataBytes()) * config_.jvmOverheadFactor;
  const uint64_t live = config_.baselineHeapBytes +
                        static_cast<uint64_t>(dataBytes) +
                        retroscope_.totalLogBytes();
  memory_.setLiveBytes(live);
  if (alive_) executor_.setSlowdownFactor(memory_.gcSlowdownFactor());
}

// ---------------------------------------------------------------------------
// Snapshot execution (Fig. 8)
// ---------------------------------------------------------------------------

void VoldemortServer::handleSnapshotRequest(hlc::Timestamp /*eventTs*/,
                                            NodeId from,
                                            SnapshotRequestBody body) {
  // Idempotency under initiator retries: a request already resolved is
  // re-acked with the original outcome; one still executing is left
  // alone (its ack reaches the initiator when it finishes).
  if (auto cached = completedAcks_.find(body.request.id);
      cached != completedAcks_.end()) {
    ++duplicateSnapshotRequests_;
    SnapshotAckBody ack;
    ack.ack = {body.request.id, id_, cached->second.first,
               cached->second.second};
    send(from, kSnapshotAck, [&](ByteWriter& w) { ack.writeTo(w); });
    return;
  }
  if (activeSnapshots_.contains(body.request.id)) {
    ++duplicateSnapshotRequests_;
    return;
  }
  for (const auto& [base, waiters] : pendingOnBase_) {
    for (const auto& waiter : waiters) {
      if (waiter.request.id == body.request.id) {
        ++duplicateSnapshotRequests_;
        return;
      }
    }
  }

  // Quarantined records make any cut through this node untrustworthy:
  // refuse loudly (kCorrupted) rather than serve a silently wrong
  // snapshot.  Deliberately not cached in completedAcks_, so an
  // initiator retry after the scrub repairs the keys can succeed.
  if (!quarantine_.empty()) {
    storageCounters_.add("storage.snapshot_refusals");
    SnapshotAckBody ack;
    ack.ack = {body.request.id, id_, core::LocalSnapshotStatus::kCorrupted, 0};
    send(from, kSnapshotAck, [&](ByteWriter& w) { ack.writeTo(w); });
    return;
  }

  ActiveSnapshot active;
  active.request = body.request;
  active.initiator = from;

  // Reject immediately if the window-log has already slid past the
  // requested time (partial snapshot, §III-A) — unless the disk archive
  // still reaches it.
  const log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  const bool reachable =
      wlog.covers(body.request.target) ||
      (archive_ != nullptr && archive_->covers(body.request.target));
  if (!reachable) {
    // When a rebalance is what moved the reachable floor (a key range
    // arrived without its full history, or a source's own floor rode
    // along with the hand-off), answer with the structured kRebalancing
    // reason — the initiator can distinguish "the window slid past" from
    // "the membership changed underneath the cut".
    core::LocalSnapshotStatus status = core::LocalSnapshotStatus::kOutOfReach;
    if (membershipEnabled() && rebalanceFloor_ > hlc::Timestamp{} &&
        body.request.target < rebalanceFloor_) {
      status = core::LocalSnapshotStatus::kRebalancing;
      membershipCounters_.add("membership.rebalance_refusals");
    }
    finishSnapshot(body.request.id, status, 0);
    SnapshotAckBody ack;
    ack.ack = {body.request.id, id_, status, 0};
    send(from, kSnapshotAck, [&](ByteWriter& w) { ack.writeTo(w); });
    return;
  }

  // Concurrent-snapshot conversion (§III-A optimization): an incoming
  // full snapshot close to an already-executing one is converted to an
  // incremental snapshot against it, skipping the data-copy stage.
  if (body.request.kind == core::SnapshotKind::kFull &&
      config_.convertConcurrentSnapshots && !activeSnapshots_.empty()) {
    // How close (HLC millis) a base must be for conversion.
    constexpr int64_t kConversionWindowMillis = 60'000;
    const auto& running = activeSnapshots_.begin()->second;
    if (std::llabs(running.request.target.l - body.request.target.l) <=
        kConversionWindowMillis) {
      active.request.kind = core::SnapshotKind::kIncremental;
      active.request.baseId = running.request.id;
      ++snapshotsConverted_;
    }
  }

  startSnapshot(std::move(active));
}

void VoldemortServer::startSnapshot(ActiveSnapshot active) {
  const core::SnapshotId id = active.request.id;
  // Remove the bound on the window-log for the duration (§III-A).
  retroscope_.getLog(kStoreLog).unbound();

  // Semantic capture time: the store's state right now corresponds to
  // every window-log append with ts <= the current HLC value.
  active.captureTime = retroscope_.now();

  if (active.request.kind == core::SnapshotKind::kFull) {
    // Data-copy stage: the hot backup's disk copy of the closed segments
    // beside a copy of the state at captureTime, read through a view one
    // chunk per executor task so foreground work runs in between.
    active.view = bdb_->openView();
    // With the store's bucket count, keys arriving in bucket order fill
    // the copy's buckets in order too.
    active.stateAtCapture.rehash(bdb_->data().bucket_count());
    active.copyPartsLeft = 2;
    if (captureObserver_) captureObserver_(id);
    activeSnapshots_.emplace(id, std::move(active));
    bdb_->hotBackup([this, id, inc = incarnation_](uint64_t /*bytesCopied*/) {
      if (incarnation_ == inc) copyPartDone(id);
    });
    copyChunk(id);
  } else {
    // Rolling/incremental: no data copy (Fig. 8's key saving).  If the
    // base snapshot is itself still executing (concurrent-snapshot
    // conversion), wait for it to land before computing the delta.
    if (active.request.baseId &&
        activeSnapshots_.contains(*active.request.baseId)) {
      pendingOnBase_[*active.request.baseId].push_back(std::move(active));
      return;
    }
    activeSnapshots_.emplace(id, std::move(active));
    snapshotCompaction(id);
  }
}

void VoldemortServer::copyChunk(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& active = it->second;
  uint64_t bytes = 0;
  const auto copy = [&](const Key& key, const Value& value) {
    bytes += key.size() + value.size();
    if (recycledState_.empty()) {
      active.stateAtCapture.try_emplace(key, value);
      return;
    }
    // Assigning into a removed snapshot's node reuses its allocations.
    auto node = recycledState_.extract(recycledState_.begin());
    node.key() = key;
    node.mapped() = value;
    active.stateAtCapture.insert(std::move(node));
  };
  store::BdbStore::ViewRead read;
  while ((read = active.view.read(config_.copyChunkBytes, copy)) ==
         store::BdbStore::ViewRead::kRestarted) {
    active.stateAtCapture.clear();
  }
  if (read == store::BdbStore::ViewRead::kClosed) {
    // The store was reopened from a snapshot under the copy.
    finishSnapshot(id, core::LocalSnapshotStatus::kFailed, 0);
    return;
  }
  // Checksumming the copied pages rides on the same per-byte CPU charge.
  const double microsPerByte =
      (config_.copyCpuMicrosPerMB +
       (config_.integrity.checksums ? config_.integrity.checksumMicrosPerMB
                                    : 0)) /
      1e6;
  const auto cost = static_cast<TimeMicros>(
      std::llround(static_cast<double>(bytes) * microsPerByte));
  const bool done = read == store::BdbStore::ViewRead::kDone;
  executor_.submit(cost, [this, id, done, inc = incarnation_] {
    if (incarnation_ != inc) return;
    if (done) {
      copyPartDone(id);
    } else {
      copyChunk(id);
    }
  });
}

void VoldemortServer::copyPartDone(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end() || --it->second.copyPartsLeft > 0) return;
  it->second.view.close();
  snapshotCompaction(id);
}

void VoldemortServer::snapshotCompaction(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& active = it->second;
  active.stage = 1;
  using Direction = log::DiffScan::Direction;
  const hlc::Timestamp target = active.request.target;
  if (active.request.kind == core::SnapshotKind::kFull) {
    if (!retroscope_.getLog(kStoreLog).covers(target) && archive_ != nullptr) {
      compactThroughArchive(id);
      return;
    }
    // Roll the captured state back from captureTime to the target.
    active.scan = log::DiffScan(Direction::kBackward, target,
                                active.captureTime);
  } else {
    const core::LocalSnapshot* base =
        active.request.baseId ? snapshotStore_.find(*active.request.baseId)
                              : nullptr;
    if (base == nullptr) {
      finishSnapshot(id, core::LocalSnapshotStatus::kFailed, 0);
      return;
    }
    active.scan = target >= base->target
                      ? log::DiffScan(Direction::kForward, base->target, target)
                      : log::DiffScan(Direction::kBackward, target,
                                      base->target);
  }
  compactChunk(id);
}

namespace {
/// Modelled compaction CPU: the entries the diff engine materialized and
/// the index/key-chain probes it spent finding them (much cheaper per
/// unit).
TimeMicros compactionMicros(const log::DiffStats& stats,
                            const ServerConfig& config) {
  return static_cast<TimeMicros>(std::llround(
      static_cast<double>(stats.entriesTraversed) *
          config.compactionMicrosPerEntry +
      static_cast<double>(stats.indexSeeks + stats.keysExamined) *
          config.indexProbeMicros));
}
}  // namespace

void VoldemortServer::compactChunk(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& active = it->second;
  log::DiffStats stats;
  auto visited = retroscope_.getLog(kStoreLog).advance(
      active.scan, config_.copyChunkBytes, &stats);
  if (!visited.isOk()) {
    finishSnapshot(id,
                   visited.status().code() == StatusCode::kOutOfRange
                       ? core::LocalSnapshotStatus::kOutOfReach
                       : core::LocalSnapshotStatus::kFailed,
                   0);
    return;
  }
  diffTotals_.accumulate(stats);
  active.deltaStats.accumulate(stats);
  const bool done = active.scan.done();
  if (done) {
    ++diffCalls_;
    active.delta = std::move(active.scan.diff());
    // Incremental/rolling content is fixed here, when the delta is read
    // out of the window-log (full snapshots were fixed at state capture).
    if (active.request.kind != core::SnapshotKind::kFull && captureObserver_) {
      captureObserver_(id);
    }
  }
  executor_.submit(compactionMicros(stats, config_),
                   [this, id, done, inc = incarnation_] {
                     if (incarnation_ != inc) return;
                     if (done) {
                       snapshotApply(id);
                     } else {
                       compactChunk(id);
                     }
                   });
}

void VoldemortServer::compactThroughArchive(core::SnapshotId id) {
  ActiveSnapshot& active = activeSnapshots_.at(id);
  log::ArchiveDiffStats astats;
  auto diff = archive_->diffBackward(retroscope_.getLog(kStoreLog),
                                     active.captureTime, active.request.target,
                                     &astats);
  if (!diff.isOk()) {
    finishSnapshot(id,
                   diff.status().code() == StatusCode::kOutOfRange
                       ? core::LocalSnapshotStatus::kOutOfReach
                       : core::LocalSnapshotStatus::kFailed,
                   0);
    return;
  }
  log::DiffStats stats = astats.live;
  stats.keysInDiff = astats.keysInDiff;
  stats.diffDataBytes = astats.diffDataBytes;
  diffTotals_.accumulate(stats);
  ++diffCalls_;
  active.deltaStats = stats;
  active.delta = std::move(diff).value();
  // Archived entries cost a slower read (decode + page-in), and are paged
  // in from disk before the application stage.
  constexpr double kArchivedEntryReadMicros = 3.0;
  const TimeMicros cost =
      compactionMicros(stats, config_) +
      static_cast<TimeMicros>(std::llround(
          static_cast<double>(astats.archivedEntriesTraversed) *
          kArchivedEntryReadMicros));
  auto proceed = [this, id, cost, inc = incarnation_] {
    executor_.submit(cost, [this, id, inc] {
      if (incarnation_ == inc) snapshotApply(id);
    });
  };
  if (astats.archivedBytesRead > 0) {
    disk_->read(astats.archivedBytesRead, std::move(proceed));
  } else {
    proceed();
  }
}

void VoldemortServer::snapshotApply(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& active = it->second;
  active.stage = 2;
  if (active.request.kind == core::SnapshotKind::kFull) {
    applyChunk(id);
    return;
  }
  // An incremental snapshot stores its delta and a rolling one applies it
  // to its base when stored; the CPU is charged per modified key here.
  const auto cost = static_cast<TimeMicros>(
      std::llround(static_cast<double>(active.deltaStats.keysInDiff) *
                   config_.applyMicrosPerEntry));
  executor_.submit(cost, [this, id, inc = incarnation_] {
    if (incarnation_ == inc) writeSnapshot(id);
  });
}

void VoldemortServer::applyChunk(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& active = it->second;
  size_t keys = 0;
  active.delta.drain(config_.copyChunkBytes, [&](Key&& key, OptValue&& value) {
    ++keys;
    if (value) {
      active.stateAtCapture.insert_or_assign(std::move(key),
                                             std::move(*value));
    } else {
      active.stateAtCapture.erase(key);
    }
  });
  const auto cost = static_cast<TimeMicros>(std::llround(
      static_cast<double>(keys) * config_.applyMicrosPerEntry));
  const bool done = active.delta.empty();
  executor_.submit(cost, [this, id, done, inc = incarnation_] {
    if (incarnation_ != inc) return;
    if (done) {
      writeSnapshot(id);
    } else {
      applyChunk(id);
    }
  });
}

void VoldemortServer::writeSnapshot(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  // Application writes the computed differences to the snapshot copy on
  // disk.
  disk_->write(it->second.deltaStats.diffDataBytes,
               [this, id, inc = incarnation_] {
                 if (incarnation_ == inc) storeSnapshot(id);
               });
}

void VoldemortServer::storeSnapshot(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot& act = it->second;
  act.stage = 3;

  core::LocalSnapshot snap;
  snap.id = act.request.id;
  snap.kind = act.request.kind;
  snap.target = act.request.target;
  snap.node = id_;
  snap.baseId = act.request.baseId;

  const size_t diskBytes = act.deltaStats.diffDataBytes;
  size_t persisted = 0;
  switch (act.request.kind) {
    case core::SnapshotKind::kFull:
      snap.state = std::move(act.stateAtCapture);
      for (const Key& key : act.graftedSinceCapture) snap.state.erase(key);
      // On disk: the copied database files plus the applied changes.
      snap.persistedBytes = bdb_->liveDataBytes() + diskBytes;
      persisted = snap.persistedBytes;
      snapshotStore_.put(std::move(snap));
      break;
    case core::SnapshotKind::kIncremental:
      // Store only the delta; application deferred to retrieval time.
      snap.delta = std::move(act.delta);
      snap.persistedBytes = diskBytes;
      persisted = diskBytes;
      snapshotStore_.put(std::move(snap));
      break;
    case core::SnapshotKind::kRolling: {
      const Status s = snapshotStore_.roll(*act.request.baseId, act.request.id,
                                           act.request.target, act.delta);
      if (!s.isOk()) {
        finishSnapshot(id, core::LocalSnapshotStatus::kFailed, 0);
        return;
      }
      persisted = diskBytes;
      break;
    }
  }
  finishSnapshot(id, core::LocalSnapshotStatus::kComplete, persisted);
}

void VoldemortServer::finishSnapshot(core::SnapshotId id,
                                     core::LocalSnapshotStatus status,
                                     size_t persistedBytes) {
  auto it = activeSnapshots_.find(id);
  NodeId initiator = 0;
  bool haveInitiator = false;
  if (it != activeSnapshots_.end()) {
    initiator = it->second.initiator;
    haveInitiator = true;
    activeSnapshots_.erase(it);
  }
  // Release converted snapshots that were waiting for this base.
  auto pending = pendingOnBase_.find(id);
  if (pending != pendingOnBase_.end()) {
    auto waiters = std::move(pending->second);
    pendingOnBase_.erase(pending);
    for (auto& waiter : waiters) {
      const core::SnapshotId waiterId = waiter.request.id;
      if (status == core::LocalSnapshotStatus::kComplete) {
        activeSnapshots_.emplace(waiterId, std::move(waiter));
        snapshotCompaction(waiterId);
      } else {
        // Base never materialized: the dependent snapshot fails too.
        activeSnapshots_.emplace(waiterId, std::move(waiter));
        finishSnapshot(waiterId, core::LocalSnapshotStatus::kFailed, 0);
      }
    }
  }
  if (activeSnapshots_.empty() && pendingOnBase_.empty()) {
    retroscope_.getLog(kStoreLog).rebound();
  }
  if (status == core::LocalSnapshotStatus::kComplete) ++snapshotsCompleted_;
  completedAcks_[id] = {status, persistedBytes};
  if (haveInitiator) {
    SnapshotAckBody ack;
    ack.ack = {id, id_, status, persistedBytes};
    send(initiator, kSnapshotAck, [&](ByteWriter& w) { ack.writeTo(w); });
  }
}

// ---------------------------------------------------------------------------
// Storage integrity: WAL-coupled appends, corruption-aware recovery, scrub
// ---------------------------------------------------------------------------

void VoldemortServer::logAppend(const Key& key, OptValue oldValue,
                                OptValue newValue, hlc::Timestamp ts) {
  if (appendObserver_) {
    appendObserver_(log::Entry{key, oldValue, newValue, ts});
  }
  if (wal_) {
    // A lying fsync acks the frame but leaves it volatile: it survives
    // until the next crash, then vanishes with everything after it.
    wal_->append(log::Entry{key, oldValue, newValue, ts},
                 !faults_->fsyncLies());
  }
  retroscope_.appendToLog(kStoreLog, key, std::move(oldValue),
                          std::move(newValue), ts);
}

void VoldemortServer::setRepairTopology(const Ring* ring,
                                        std::vector<NodeId> peers,
                                        size_t replicas) {
  ring_ = ring;
  repairPeers_ = std::move(peers);
  replicationFactor_ = replicas;
}

void VoldemortServer::recoverStorage() {
  // Cold-block rot sat latent until this restart read the bytes back.
  for (double fraction : faults_->takeRotEpisodes()) applyRotEpisode(fraction);

  log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  if (!config_.recovery.persistWindowLog) {
    // Nothing journaled: the window restarts empty and history before
    // the recovery point becomes unreachable (kOutOfReach on request).
    wlog.resetForRecovery(maxHlcAtCrash_);
  } else if (wal_) {
    replayWal(wlog);
  }

  // Scan the store's segment records against their stored CRCs; failing
  // records are quarantined (dropped from the index — the durable bytes
  // are unreadable) for the scrub to rebuild from ring replicas.
  const auto report = bdb_->verifyRecords(config_.integrity.checksums);
  storageCounters_.add("storage.records_checked", report.recordsChecked);
  if (!report.quarantined.empty()) {
    storageCounters_.add("storage.corruptions_detected",
                         report.quarantined.size());
    storageCounters_.add("storage.segments_quarantined");
    storageCounters_.add("storage.keys_quarantined",
                         report.quarantined.size());
    for (const Key& k : report.quarantined) {
      versions_.erase(k);
      quarantine_.insert(k);
    }
  }
}

void VoldemortServer::applyRotEpisode(double fraction) {
  // The journal gets one rotted frame (the tail is the coldest data a
  // crashed node has), or a rotted checkpoint image when there is no
  // tail to hit.
  if (wal_) {
    if (wal_->tailFrames() > 0) {
      wal_->rotFrame(faults_->pick(1ull << 32), faults_->pick(1ull << 32));
    } else if (wal_->hasCheckpoint() && faults_->pick(2) == 0) {
      wal_->corruptCheckpoint();
    }
  }
  // Segment records: an order-independent per-record predicate decides
  // which rot, so unordered-map iteration order cannot perturb the
  // outcome for a given seed.
  const uint64_t salt = faults_->pick(1ull << 62) | 1;
  for (const auto& [key, value] : bdb_->data()) {
    if (sim::StorageFaultModel::rots(Ring::hashKey(key), salt, fraction)) {
      bdb_->corruptRecordValue(key,
                               SplitMix64(Ring::hashKey(key) ^ salt).next());
    }
  }
}

void VoldemortServer::replayWal(log::WindowLog& wlog) {
  const log::WalReplayResult r = wal_->replay(config_.integrity.checksums);
  storageCounters_.add("storage.frames_checked", r.framesChecked);
  if (r.corruptFrames > 0) {
    storageCounters_.add("storage.corruptions_detected", r.corruptFrames);
  }

  const uint64_t expectedNext = wlog.nextSeq();
  bool reset = false;
  if (r.orderViolation) {
    // HLC went backwards across frames that passed their CRCs: the
    // journal cannot be trusted at all.  Fail recovery loudly — reset
    // the log so every pre-crash target refuses with kOutOfReach.
    storageCounters_.add("storage.wal_order_violations");
    reset = true;
  } else if (r.tornTail || r.parsedEndSeq < expectedNext) {
    // Torn or missing tail frames (crashed write / lying fsync): the
    // newest changes never became durable.
    storageCounters_.add("storage.wal_tail_truncated");
    reset = true;
  }

  // A corrupt frame mid-tail keeps the contiguous good suffix; a corrupt
  // checkpoint image keeps the whole tail but loses everything below it.
  uint64_t usableFrom = r.usableFromSeq;
  if (r.checkpointCorrupt) {
    storageCounters_.add("storage.checkpoint_corrupt");
    usableFrom = std::max(usableFrom, r.checkpointEndSeq);
  }

  if (reset) {
    wlog.resetForRecovery(maxHlcAtCrash_);
  } else if (usableFrom > wlog.frontSeq()) {
    const uint64_t dropped =
        std::min(usableFrom, wlog.nextSeq()) - wlog.frontSeq();
    wlog.dropBelowSeq(usableFrom);
    storageCounters_.add("storage.wal_entries_dropped", dropped);
  }
  wal_->reset(wlog.nextSeq());
}

void VoldemortServer::startScrub() {
  if (scrubActive_ || quarantine_.empty() || !alive_) return;
  if (routingRing() == nullptr && repairPeers_.empty()) {
    // No topology to repair from: stay quarantined.  Refusing snapshots
    // is safe; serving silently wrong ones is not.
    storageCounters_.add("storage.repair_no_peers");
    return;
  }
  scrubActive_ = true;
  scrubRound_ = 0;
  absentFrom_.clear();
  scrubStep();
}

void VoldemortServer::scrubStep() {
  // Request rounds before the scrub pauses (quarantined keys keep
  // refusing snapshots, the safe state) and retries after
  // kRepairRetryMicros; each round waits kRepairTimeoutMicros for replies.
  constexpr size_t kRepairMaxRounds = 6;
  constexpr TimeMicros kRepairTimeoutMicros = 300'000;
  constexpr TimeMicros kRepairRetryMicros = 2 * kMicrosPerSecond;
  if (!alive_) {
    scrubActive_ = false;
    return;
  }
  if (quarantine_.empty()) {
    completeScrub();
    return;
  }
  if (scrubRound_ >= kRepairMaxRounds) {
    // Give the cluster time to heal (a crashed replica restarting) and
    // retry; quarantined keys keep refusing snapshots meanwhile.  A
    // daemon so an otherwise-quiesced simulation can still terminate.
    scrubActive_ = false;
    storageCounters_.add("storage.repair_rounds_exhausted");
    const uint64_t inc = incarnation_;
    ctx_->scheduleDaemon(id_, kRepairRetryMicros, [this, inc] {
      if (alive_ && incarnation_ == inc) startScrub();
    });
    return;
  }
  ++scrubRound_;
  const uint64_t generation = ++repairGeneration_;
  // Batch by target replica; std::map so batch order is deterministic.
  std::map<NodeId, std::vector<Key>> batches;
  for (const Key& k : quarantine_) {
    const NodeId target = repairTargetFor(k);
    if (target != id_) batches[target].push_back(k);
  }
  if (batches.empty()) {
    scrubActive_ = false;
    storageCounters_.add("storage.repair_no_peers");
    return;
  }
  pendingRepairReplies_ = batches.size();
  for (const auto& [peer, keys] : batches) {
    storageCounters_.add("storage.repair_requests");
    RepairRequestBody req;
    req.requestId = generation;
    req.keys = keys;
    send(peer, kRepairRequest, [&](ByteWriter& w) { req.writeTo(w); });
  }
  const uint64_t inc = incarnation_;
  ctx_->schedule(id_, kRepairTimeoutMicros, [this, inc, generation] {
    if (alive_ && incarnation_ == inc && scrubActive_ &&
        repairGeneration_ == generation) {
      scrubStep();
    }
  });
}

void VoldemortServer::completeScrub() {
  scrubActive_ = false;
  absentFrom_.clear();
  ++repairGeneration_;
  // Repaired values have no trustworthy history below the repair point:
  // raise the window-log floor so a backward diff through the corrupted
  // range refuses (kOutOfReach) instead of reconstructing wrong state.
  log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  wlog.truncateThrough(retroscope_.now());
  if (wal_) wal_->reset(wlog.nextSeq());
  storageCounters_.add("storage.ranges_repaired");
  updateMemoryModel();
}

NodeId VoldemortServer::repairTargetFor(const Key& key) const {
  std::vector<NodeId> candidates;
  const Ring* ring = routingRing();
  if (ring != nullptr && replicationFactor_ > 0) {
    for (NodeId n : ring->preferenceList(key, replicationFactor_)) {
      if (n != id_) candidates.push_back(n);
    }
  }
  if (candidates.empty()) {
    for (NodeId n : repairPeers_) {
      if (n != id_) candidates.push_back(n);
    }
  }
  if (candidates.empty()) return id_;
  // Rotate through the candidates across rounds so a crashed or
  // corrupted-too replica doesn't starve the repair.
  return candidates[(scrubRound_ - 1) % candidates.size()];
}

size_t VoldemortServer::repairCandidateCount(const Key& key) const {
  size_t count = 0;
  const Ring* ring = routingRing();
  if (ring != nullptr && replicationFactor_ > 0) {
    for (NodeId n : ring->preferenceList(key, replicationFactor_)) {
      if (n != id_) ++count;
    }
  }
  if (count == 0) {
    for (NodeId n : repairPeers_) {
      if (n != id_) ++count;
    }
  }
  return count;
}

void VoldemortServer::handleRepairRequest(hlc::Timestamp /*eventTs*/,
                                          NodeId from,
                                          RepairRequestBody body) {
  storageCounters_.add("storage.repair_requests_served");
  RepairResponseBody resp;
  resp.requestId = body.requestId;
  for (const Key& k : body.keys) {
    // Our own quarantined copy is exactly as untrustworthy as the
    // requester's: omit the key entirely (no answer, not an absent vote).
    if (quarantine_.count(k) > 0) continue;
    RepairResponseBody::Item item;
    item.key = k;
    if (OptValue v = bdb_->get(k)) {
      item.known = true;
      item.value = std::move(*v);
      if (auto it = versions_.find(k); it != versions_.end()) {
        item.version = it->second;
      }
    }
    resp.items.push_back(std::move(item));
  }
  send(from, kRepairResponse, [&](ByteWriter& w) { resp.writeTo(w); });
}

void VoldemortServer::handleRepairResponse(hlc::Timestamp eventTs, NodeId from,
                                           RepairResponseBody body) {
  if (!scrubActive_ || body.requestId != repairGeneration_) return;
  for (auto& item : body.items) {
    if (quarantine_.count(item.key) == 0) continue;
    if (item.known) {
      // Rebuild the record from the replica's copy; the repair is a
      // logged state change so later diffs see it.
      const OptValue old = bdb_->get(item.key);
      bdb_->put(item.key, item.value);
      versions_[item.key] = item.version;
      if (config_.windowLogEnabled) {
        logAppend(item.key, old, item.value, eventTs);
      }
      quarantine_.erase(item.key);
      absentFrom_.erase(item.key);
      storageCounters_.add("storage.keys_repaired");
    } else {
      // One replica's "does not exist" is not proof — another candidate
      // may hold the key.  Tombstone only when every candidate voted.
      auto& votes = absentFrom_[item.key];
      votes.insert(from);
      if (votes.size() >= repairCandidateCount(item.key)) {
        if (config_.windowLogEnabled) {
          logAppend(item.key, std::nullopt, std::nullopt, eventTs);
        }
        quarantine_.erase(item.key);
        absentFrom_.erase(item.key);
        storageCounters_.add("storage.keys_unrecoverable");
      }
    }
  }
  if (quarantine_.empty()) {
    completeScrub();
  } else if (pendingRepairReplies_ > 0 && --pendingRepairReplies_ == 0) {
    scrubStep();
  }
  updateMemoryModel();
}

void VoldemortServer::handleProgressRequest(hlc::Timestamp /*eventTs*/,
                                            NodeId from,
                                            ProgressRequestBody body) {
  ProgressReplyBody reply;
  reply.snapshotId = body.snapshotId;
  auto it = activeSnapshots_.find(body.snapshotId);
  if (it != activeSnapshots_.end()) {
    reply.status = core::LocalSnapshotStatus::kPending;
    reply.stage = it->second.stage;
  } else if (snapshotStore_.contains(body.snapshotId)) {
    reply.status = core::LocalSnapshotStatus::kComplete;
    reply.stage = 3;
  } else {
    reply.status = core::LocalSnapshotStatus::kFailed;
  }
  send(from, kProgressReply, [&](ByteWriter& w) { reply.writeTo(w); });
}

// ---------------------------------------------------------------------------
// Temporal queries (streaming replay over the window-log)
// ---------------------------------------------------------------------------

void VoldemortServer::handleQueryRequest(hlc::Timestamp eventTs, NodeId from,
                                         QueryRequestBody body) {
  ++queriesServed_;
  const auto refuse = [&](StatusCode code, std::string reason) {
    QueryReplyBody reply;
    reply.queryId = body.queryId;
    reply.statusCode = code;
    reply.reason = std::move(reason);
    send(from, kQueryReply, [&](ByteWriter& w) { reply.writeTo(w); });
  };

  // Quarantined records poison every cut through this node: refuse
  // loudly, mirroring the snapshot path.
  if (!quarantine_.empty()) {
    storageCounters_.add("storage.query_refusals");
    refuse(StatusCode::kFailedPrecondition,
           std::to_string(quarantine_.size()) +
               " quarantined keys awaiting repair");
    return;
  }

  auto parsed = core::SnapshotQuery::parse(body.queryText);
  if (!parsed.isOk()) {
    refuse(StatusCode::kInvalidArgument, parsed.status().message());
    return;
  }
  const core::SnapshotQuery& query = parsed.value();
  if (!query.isTemporal()) {
    refuse(StatusCode::kInvalidArgument,
           "query has no OVER clause; temporal evaluation requires one");
    return;
  }
  core::PartialsEvaluator eval(query, *query.temporal());
  if (Status s = eval.check(retroscope_.getLog(kStoreLog)); !s.isOk()) {
    refuse(s.code(), s.message());
    return;
  }

  // Fold the store as of this event one chunk per task, so foreground
  // work runs in between, then replay the grid in one more task.
  const uint64_t key = queriesServed_;
  ActiveQuery& q =
      activeQueries_.try_emplace(key, from, body.queryId, std::move(eval))
          .first->second;
  openQueryView(q, eventTs);
  foldQueryChunk(key);
}

void VoldemortServer::openQueryView(ActiveQuery& q, hlc::Timestamp t0) {
  q.view = bdb_->openView();
  q.t0 = t0;
  q.grafts = historyGrafts_;
  q.eval.reset();
  q.stats = {};
}

void VoldemortServer::foldQueryChunk(uint64_t key) {
  auto it = activeQueries_.find(key);
  if (it == activeQueries_.end()) return;
  ActiveQuery& q = it->second;
  if (q.grafts != historyGrafts_ || !q.view.isOpen()) {
    // A graft added history before t0 that the fold never saw, or the
    // store was reopened: start over from now.
    openQueryView(q, retroscope_.now());
  }
  const auto fold = [&q](const Key& k, const Value& v) { q.eval.fold(k, v); };
  store::BdbStore::ViewRead read;
  while ((read = q.view.read(config_.copyChunkBytes, fold)) ==
         store::BdbStore::ViewRead::kRestarted) {
    q.eval.reset();
  }
  const bool done = read == store::BdbStore::ViewRead::kDone;
  executor_.submit(0, [this, key, done, inc = incarnation_] {
    if (incarnation_ != inc) return;
    if (done) {
      finishQuery(key);
    } else {
      foldQueryChunk(key);
    }
  });
}

void VoldemortServer::finishQuery(uint64_t key) {
  auto it = activeQueries_.find(key);
  if (it == activeQueries_.end()) return;
  ActiveQuery& q = it->second;
  if (q.grafts != historyGrafts_ || !q.view.isOpen()) {
    foldQueryChunk(key);  // starts over
    return;
  }
  core::ReplayStats stats;
  auto done = q.eval.finishPart(
      retroscope_.getLog(kStoreLog), q.t0,
      [&q](const Key& k) { return q.view.valueAtOpen(k); },
      config_.copyChunkBytes, &stats);
  if (!done.isOk()) {
    QueryReplyBody reply;
    reply.queryId = q.queryId;
    reply.statusCode = done.status().code();
    reply.reason = done.status().message();
    const NodeId from = q.from;
    activeQueries_.erase(it);
    send(from, kQueryReply, [&](ByteWriter& w) { reply.writeTo(w); });
    return;
  }
  queryReplayTotals_.accumulate(stats);
  diffTotals_.accumulate(stats.diffTotals);
  diffCalls_ += stats.diffCalls;
  q.stats.accumulate(stats);

  // Charge CPU proportional to the replay actually performed: the base
  // state's keys, every diff entry applied, and the diff engine's
  // traversal/probing — the same cost knobs the snapshot path uses, so
  // replay cost shows up in foreground latency honestly.
  const TimeMicros cost = static_cast<TimeMicros>(
      config_.applyMicrosPerEntry *
          static_cast<double>(stats.baseStateKeys + stats.replayedKeys) +
      config_.compactionMicrosPerEntry *
          static_cast<double>(stats.diffTotals.entriesTraversed) +
      config_.indexProbeMicros *
          static_cast<double>(stats.diffTotals.indexSeeks +
                              stats.diffTotals.keysExamined));
  const uint64_t inc = incarnation_;
  if (!done.value()) {
    executor_.submit(cost, [this, key, inc] {
      if (incarnation_ == inc) finishQuery(key);
    });
    return;
  }
  QueryReplyBody reply;
  reply.queryId = q.queryId;
  reply.steps = q.eval.takeSeries();
  reply.baseStateKeys = q.stats.baseStateKeys;
  reply.replayedKeys = q.stats.replayedKeys;
  const NodeId from = q.from;
  // The overlay holds a value per key the diffs touched: free it off the
  // node thread, like a removed snapshot.
  ctx_->dispose(std::make_shared<core::PartialsEvaluator>(std::move(q.eval)));
  activeQueries_.erase(it);
  executor_.submit(cost, [this, inc, from, reply = std::move(reply)] {
    if (!alive_ || incarnation_ != inc) return;
    send(from, kQueryReply, [&](ByteWriter& w) { reply.writeTo(w); });
  });
}

// ---------------------------------------------------------------------------
// Elastic membership: gossip, join/leave, key-range rebalance
// ---------------------------------------------------------------------------

namespace {
/// Heartbeat + anti-entropy gossip period.
constexpr TimeMicros kGossipPeriodMicros = 150'000;
/// Retransmission attempt bound per transfer chunk; an exhausted chunk
/// aborts the whole stream.
constexpr uint32_t kMaxChunkAttempts = 5;
}  // namespace

void VoldemortServer::configureMembership(const MembershipView& genesis,
                                          NodeId adminId,
                                          size_t ringVirtualNodes) {
  if (!membershipEnabled()) return;
  view_ = genesis;
  adminId_ = adminId;
  hasAdmin_ = true;
  ringVirtualNodes_ = ringVirtualNodes;
  gossipRng_ = SplitMix64(0x6d656d6272736870ULL ^
                          (static_cast<uint64_t>(id_) + 1) * 0x9e3779b97f4a7c15ULL);
  if (view_.find(id_) != nullptr) {
    membershipStarted_ = true;
    // The admin was constructed with the genesis membership: no push.
    lastPushedEpoch_ = view_.epoch();
    onViewChanged(/*gossip=*/false);
  }
  ctx_->scheduleDaemon(id_, kGossipPeriodMicros,
                       [this] { membershipTick(); });
}

Ring VoldemortServer::ringOver(std::vector<NodeId> members) const {
  return Ring(std::move(members), ringVirtualNodes_);
}

void VoldemortServer::onViewChanged(bool gossip) {
  membershipCounters_.add("membership.view_changes");
  auto routable = view_.routableMembers();
  if (!routable.empty()) ownRing_ = ringOver(std::move(routable));
  if (hasAdmin_ && alive_ && !left_ && view_.epoch() > lastPushedEpoch_) {
    lastPushedEpoch_ = view_.epoch();
    pushViewTo(adminId_);
  }
  maybeStartOutboundTransfers();
  if (gossip) gossipNow();
}

void VoldemortServer::membershipTick() {
  // Heartbeat silence before a peer is marked kSuspect / confirmed kDead.
  constexpr TimeMicros kSuspectAfterMicros = 600'000;
  constexpr TimeMicros kConfirmAfterMicros = 1'200'000;
  if (alive_ && membershipStarted_ && !left_) {
    const TimeMicros localNow = ctx_->now();
    bool changed = false;
    if (view_.find(id_) != nullptr) view_.beatHeartbeat(id_);
    for (const auto& [node, rec] : view_.records()) {
      if (node == id_ || rec.status == MemberStatus::kLeft) continue;
      auto [it, inserted] = lastBeat_.try_emplace(
          node, std::make_pair(rec.heartbeat, localNow));
      if (!inserted && rec.heartbeat > it->second.first) {
        it->second = {rec.heartbeat, localNow};
      }
      const TimeMicros silent = localNow - it->second.second;
      // Suspicion is epidemic: a heartbeat relayed through any peer
      // resets the timer, so a one-way link loss never confirms death.
      // Only full routing participants are suspected — a joiner that
      // goes quiet simply never activates (suspicion would promote it
      // into the routable set half-transferred).
      if (rec.status == MemberStatus::kActive ||
          rec.status == MemberStatus::kLeaving) {
        if (silent >= kSuspectAfterMicros) {
          view_.setStatus(node, MemberStatus::kSuspect);
          membershipCounters_.add("membership.suspects_marked");
          changed = true;
        }
      } else if (rec.status == MemberStatus::kSuspect &&
                 silent >= kConfirmAfterMicros) {
        view_.setStatus(node, MemberStatus::kDead);
        membershipCounters_.add("membership.deaths_confirmed");
        changed = true;
      }
    }
    if (joining_ && view_.find(id_) == nullptr) {
      // Admission raced with a dropped reply: ask the seed again.
      JoinRequestBody req{id_};
      send(joinSeed_, kJoinRequest, [&](ByteWriter& w) { req.writeTo(w); });
    }
    if (changed) {
      onViewChanged(/*gossip=*/true);
    } else {
      gossipNow();
    }
  }
  // Reschedules even while crashed (the daemon survives a restart);
  // stops for good once the node has left.
  if (!left_) {
    ctx_->scheduleDaemon(id_, kGossipPeriodMicros,
                         [this] { membershipTick(); });
  }
}

void VoldemortServer::gossipNow() {
  if (!alive_ || !membershipStarted_ || left_) return;
  // kSuspect/kDead stay candidates: a falsely-accused member can only
  // refute a claim it has seen.
  std::vector<NodeId> candidates;
  for (const auto& [node, rec] : view_.records()) {
    if (node != id_ && rec.status != MemberStatus::kLeft) {
      candidates.push_back(node);
    }
  }
  constexpr size_t kGossipFanout = 2;  // random peers per gossip round
  const size_t fanout = std::min(kGossipFanout, candidates.size());
  for (size_t i = 0; i < fanout; ++i) {
    const size_t j =
        i + static_cast<size_t>(gossipRng_.next() % (candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
    pushViewTo(candidates[i]);
    membershipCounters_.add("membership.gossip_sent");
  }
}

void VoldemortServer::pushViewTo(NodeId peer) {
  GossipBody body{view_};
  send(peer, kGossip, [&](ByteWriter& w) { body.writeTo(w); });
}

void VoldemortServer::handleGossip(hlc::Timestamp /*eventTs*/,
                                   NodeId /*from*/, GossipBody body) {
  if (!membershipEnabled() || !membershipStarted_ || left_) return;
  const uint64_t before = view_.epoch();
  if (view_.merge(body.view, id_)) {
    membershipCounters_.add("membership.gossip_merged");
    if (joining_) noteAdmission();
    // Re-gossip eagerly only when the epoch moved (a status change);
    // heartbeat-only merges ride the periodic rounds.
    onViewChanged(/*gossip=*/view_.epoch() > before);
  }
}

void VoldemortServer::handleJoinRequest(hlc::Timestamp /*eventTs*/,
                                        NodeId from, JoinRequestBody body) {
  if (!membershipEnabled() || !membershipStarted_ || left_ || joining_) return;
  const auto status = view_.statusOf(body.node);
  if (status && *status == MemberStatus::kLeft) return;  // terminal
  if (!status) {
    view_.setStatus(body.node, MemberStatus::kJoining);
    membershipCounters_.add("membership.joins_admitted");
    onViewChanged(/*gossip=*/true);
  }
  // Answer (and re-answer duplicates) with the admitting view.
  JoinResponseBody resp{view_};
  send(from, kJoinResponse, [&](ByteWriter& w) { resp.writeTo(w); });
}

void VoldemortServer::handleJoinResponse(hlc::Timestamp /*eventTs*/,
                                         NodeId /*from*/,
                                         JoinResponseBody body) {
  if (!membershipEnabled() || !joining_ || left_) return;
  view_.merge(body.view, id_);
  noteAdmission();
  onViewChanged(/*gossip=*/false);
}

void VoldemortServer::noteAdmission() {
  if (!joining_ || joinSourcesInitialized_) return;
  const auto st = view_.statusOf(id_);
  if (!st || *st != MemberStatus::kJoining) return;
  joinSourcesInitialized_ = true;
  for (const auto& [node, rec] : view_.records()) {
    if (node == id_) continue;
    if (rec.status == MemberStatus::kActive ||
        rec.status == MemberStatus::kLeaving) {
      pendingJoinSources_.insert(node);
    }
  }
  if (pendingJoinSources_.empty()) activateSelf(/*historyIncomplete=*/false);
}

void VoldemortServer::beginJoin(NodeId seedMember) {
  if (!membershipEnabled() || membershipStarted_ || left_) return;
  membershipStarted_ = true;
  joining_ = true;
  joinSeed_ = seedMember;
  membershipCounters_.add("membership.joins_started");
  JoinRequestBody req{id_};
  send(seedMember, kJoinRequest, [&](ByteWriter& w) { req.writeTo(w); });
  armJoinTimeout();
}

void VoldemortServer::armJoinTimeout() {
  // A joiner activates anyway after this long, abandoning sources that
  // never finished (their history floor is lost: kRebalancing refusals
  // below the activation point).
  constexpr TimeMicros kJoinTimeoutMicros = 2'500'000;
  const uint64_t inc = incarnation_;
  ctx_->schedule(id_, kJoinTimeoutMicros, [this, inc] {
    if (!alive_ || incarnation_ != inc || !joining_) return;
    membershipCounters_.add("membership.join_timeouts");
    const bool abandoned =
        !pendingJoinSources_.empty() || !joinSourcesInitialized_;
    pendingJoinSources_.clear();
    joinSourcesInitialized_ = true;
    activateSelf(/*historyIncomplete=*/abandoned);
  });
}

void VoldemortServer::activateSelf(bool historyIncomplete) {
  if (!joining_) return;
  joining_ = false;
  if (historyIncomplete || sawHistorylessKeys_) {
    // Some inherited ranges carry no history below their hand-off point
    // (ablated hand-off, a trimmed source, or abandoned sources): a cut
    // below the activation point through this node would silently lose
    // them.  The floor genuinely moved — record it so such targets get
    // the structured kRebalancing refusal instead of a wrong answer.
    log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
    wlog.truncateThrough(retroscope_.now());
    if (wal_) wal_->reset(wlog.nextSeq());
    if (rebalanceFloor_ < wlog.floor()) rebalanceFloor_ = wlog.floor();
    membershipCounters_.add("membership.floor_moves");
  }
  view_.setStatus(id_, MemberStatus::kActive);
  membershipCounters_.add("membership.joins_completed");
  updateMemoryModel();
  onViewChanged(/*gossip=*/true);
}

void VoldemortServer::beginLeave() {
  if (!membershipEnabled() || !membershipStarted_ || joining_ || leaving_ ||
      left_ || !alive_) {
    return;
  }
  leaving_ = true;
  membershipCounters_.add("membership.leaves_started");
  view_.setStatus(id_, MemberStatus::kLeaving);
  onViewChanged(/*gossip=*/true);
  // Drain: stream each key range (values + history) to the members that
  // inherit it once this node is gone.
  auto remaining = view_.routableMembers();
  remaining.erase(std::remove(remaining.begin(), remaining.end(), id_),
                  remaining.end());
  if (!remaining.empty()) {
    const Ring after = ringOver(remaining);
    for (NodeId dest : remaining) {
      if (view_.statusOf(dest) == MemberStatus::kDead) continue;
      startTransferTo(dest, after, /*drain=*/true);
    }
  }
  finishLeaveDrain();  // covers the zero-stream case
}

void VoldemortServer::finishLeaveDrain() {
  if (!leaving_ || left_) return;
  for (const auto& [tid, t] : outbound_) {
    if (t.drain) return;  // still draining
  }
  leaving_ = false;
  left_ = true;
  membershipCounters_.add("membership.leaves_completed");
  view_.setStatus(id_, MemberStatus::kLeft);
  // Final announcement to every reachable member and the admin (a random
  // fanout would race our own shutdown).
  for (const auto& [node, rec] : view_.records()) {
    if (node != id_ && rec.status != MemberStatus::kLeft &&
        rec.status != MemberStatus::kDead) {
      pushViewTo(node);
    }
  }
  if (hasAdmin_) pushViewTo(adminId_);
  ctx_->disconnect(id_);
}

void VoldemortServer::maybeStartOutboundTransfers() {
  if (!alive_ || !membershipStarted_ || joining_ || left_) return;
  const auto selfStatus = view_.statusOf(id_);
  if (!selfStatus || (*selfStatus != MemberStatus::kActive &&
                      *selfStatus != MemberStatus::kLeaving &&
                      *selfStatus != MemberStatus::kSuspect)) {
    return;  // only standing members seed joiners
  }
  for (const auto& [node, rec] : view_.records()) {
    if (node == id_ || rec.status != MemberStatus::kJoining) continue;
    if (!transferTargetsStarted_.insert(node).second) continue;
    // Every standing replica streams its share of the joiner's ranges;
    // the joiner reconciles duplicate copies by version vector.
    auto members = view_.routableMembers();
    if (std::find(members.begin(), members.end(), node) == members.end()) {
      members.push_back(node);
    }
    startTransferTo(node, ringOver(std::move(members)), /*drain=*/false);
  }
}

void VoldemortServer::startTransferTo(NodeId target, const Ring& targetRing,
                                      bool drain) {
  const size_t nrep = replicationFactor_ > 0 ? replicationFactor_ : 2;
  // Deterministic key order so chunk boundaries replay identically for a
  // given seed regardless of hash-map iteration order.
  std::vector<Key> keys;
  keys.reserve(bdb_->data().size());
  for (const auto& [k, v] : bdb_->data()) keys.push_back(k);
  std::sort(keys.begin(), keys.end());

  const log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  const Ring* oldRing = routingRing();
  std::vector<TransferItemWire> items;
  for (const Key& k : keys) {
    if (quarantine_.count(k) > 0) continue;  // never spread corruption
    auto newPl = targetRing.preferenceList(k, nrep);
    if (std::find(newPl.begin(), newPl.end(), target) == newPl.end()) continue;
    if (drain && oldRing != nullptr) {
      auto oldPl = oldRing->preferenceList(k, nrep);
      if (std::find(oldPl.begin(), oldPl.end(), target) != oldPl.end()) {
        continue;  // the target already replicates this key
      }
    }
    TransferItemWire item;
    item.key = k;
    if (OptValue v = bdb_->get(k)) item.value = std::move(*v);
    if (auto it = versions_.find(k); it != versions_.end()) {
      item.version = it->second;
    }
    if (config_.membership.handoffHistory && config_.windowLogEnabled) {
      item.history = wlog.historyFor(k);
      if (item.history.empty() && wlog.floor() == hlc::Timestamp{}) {
        // A preloaded key never written since genesis: synthesize its
        // creation so the receiver answers diffToPast at any time the
        // way this node would.
        item.history.push_back(
            log::Entry{k, std::nullopt, item.value, hlc::Timestamp{}});
      }
    }
    items.push_back(std::move(item));
  }
  if (drain && items.empty()) return;  // nothing for this destination

  OutboundTransfer t;
  t.target = target;
  t.drain = drain;
  const uint64_t tid =
      (static_cast<uint64_t>(id_) << 32) | ++transferCounter_;
  constexpr size_t kChunkKeys = 32;  // keys per stop-and-wait chunk
  const hlc::Timestamp floor =
      config_.windowLogEnabled ? wlog.floor() : hlc::Timestamp{};
  for (size_t i = 0; i < items.size(); i += kChunkKeys) {
    TransferChunkBody chunk;
    chunk.transferId = tid;
    chunk.source = id_;
    chunk.chunkSeq = t.chunks.size();
    chunk.sourceFloor = floor;
    const size_t end = std::min(items.size(), i + kChunkKeys);
    chunk.items.assign(std::make_move_iterator(items.begin() + i),
                       std::make_move_iterator(items.begin() + end));
    t.chunks.push_back(std::move(chunk));
  }
  if (t.chunks.empty()) {
    TransferChunkBody chunk;
    chunk.transferId = tid;
    chunk.source = id_;
    chunk.sourceFloor = floor;
    t.chunks.push_back(std::move(chunk));
  }
  t.chunks.back().done = true;
  outbound_.emplace(tid, std::move(t));
  membershipCounters_.add("membership.transfers_started");
  membershipCounters_.add("membership.keys_offered", items.size());
  sendTransferChunk(tid);
}

void VoldemortServer::sendTransferChunk(uint64_t transferId) {
  auto it = outbound_.find(transferId);
  if (it == outbound_.end() || !alive_) return;
  OutboundTransfer& t = it->second;
  if (t.nextChunk >= t.chunks.size()) return;
  if (t.totalSends >= uint64_t{kMaxChunkAttempts} * (t.chunks.size() + 2)) {
    // Rewind-loop bound: a receiver that keeps losing its progress
    // cannot hold the stream (and a leaving node's drain) open forever.
    abortTransfer(transferId);
    return;
  }
  ++t.attempts;
  ++t.totalSends;
  membershipCounters_.add("membership.chunks_sent");
  const TransferChunkBody& chunk = t.chunks[t.nextChunk];
  send(t.target, kTransferChunk, [&](ByteWriter& w) { chunk.writeTo(w); });
  // Stop-and-wait: arm the retransmission (shared capped exponential
  // backoff from runtime/retry.hpp, without jitter).
  constexpr TimeMicros kRetryBaseMicros = 60'000;
  constexpr TimeMicros kRetryCapMicros = 500'000;
  constexpr double kRetryJitter = 0;
  const TimeMicros delay = runtime::cappedBackoffDelay(
      kRetryBaseMicros, kRetryCapMicros, kRetryJitter, t.attempts,
      runtime::retryJitterKey(transferId, t.target, t.attempts));
  const uint64_t gen = ++t.generation;
  const uint64_t inc = incarnation_;
  ctx_->schedule(id_, delay, [this, transferId, gen, inc] {
    if (!alive_ || incarnation_ != inc) return;
    transferChunkTimeout(transferId, gen);
  });
}

void VoldemortServer::transferChunkTimeout(uint64_t transferId,
                                           uint64_t generation) {
  auto it = outbound_.find(transferId);
  if (it == outbound_.end() || it->second.generation != generation) return;
  if (it->second.attempts >= kMaxChunkAttempts) {
    abortTransfer(transferId);
    return;
  }
  membershipCounters_.add("membership.chunks_resent");
  sendTransferChunk(transferId);
}

void VoldemortServer::abortTransfer(uint64_t transferId) {
  auto it = outbound_.find(transferId);
  if (it == outbound_.end()) return;
  const bool drain = it->second.drain;
  outbound_.erase(it);
  membershipCounters_.add("membership.transfers_aborted");
  // An aborted join stream leaves the joiner waiting: its join timeout
  // abandons us and moves its floor.  An aborted drain stream must not
  // hold the departure open.
  if (drain) finishLeaveDrain();
}

void VoldemortServer::handleTransferAck(hlc::Timestamp /*eventTs*/,
                                        NodeId /*from*/, TransferAckBody body) {
  auto it = outbound_.find(body.transferId);
  if (it == outbound_.end()) return;
  OutboundTransfer& t = it->second;
  ++t.generation;  // cancel the armed retransmission
  const auto acked = static_cast<size_t>(body.chunkSeq);
  if (acked > t.nextChunk) {
    t.nextChunk = acked;
    t.attempts = 0;
  } else if (acked < t.nextChunk) {
    // The receiver lost its inbound progress (crash/restart) and expects
    // an earlier chunk: rewind and replay — applications are idempotent.
    membershipCounters_.add("membership.stream_rewinds");
    t.nextChunk = acked;
    t.attempts = 0;
  }
  // acked == nextChunk: our previous send was lost; resend it now.
  if (t.nextChunk >= t.chunks.size()) {
    const bool drain = t.drain;
    outbound_.erase(it);
    membershipCounters_.add("membership.transfers_completed");
    if (drain) finishLeaveDrain();
    return;
  }
  sendTransferChunk(body.transferId);
}

void VoldemortServer::handleTransferChunk(hlc::Timestamp eventTs, NodeId from,
                                          TransferChunkBody body) {
  if (!membershipEnabled() || left_) return;
  uint64_t& next = inboundNext_[body.transferId];
  if (body.chunkSeq == next) {
    uint64_t graftedEntries = 0;
    uint64_t bytes = 0;
    bool walDirty = false;
    for (const TransferItemWire& item : body.items) {
      bytes += item.key.size() + item.value.size();
      if (applyTransferItem(item, eventTs, body.sourceFloor,
                            &graftedEntries)) {
        walDirty = true;
      }
    }
    ++next;
    membershipCounters_.add("membership.chunks_received");
    membershipCounters_.add("membership.keys_received", body.items.size());
    if (graftedEntries > 0) {
      membershipCounters_.add("membership.history_entries_grafted",
                              graftedEntries);
    }
    if (walDirty && wal_) {
      // Grafted entries joined the window-log without journal frames:
      // re-seed the journal at the log's sequence so recovery replay
      // stays aligned.
      wal_->reset(retroscope_.getLog(kStoreLog).nextSeq());
    }
    if (bytes > 0) disk_->write(bytes, [] {});
    updateMemoryModel();
    if (!alive_) return;  // the chunk that broke the heap's back
  } else if (body.chunkSeq < next) {
    membershipCounters_.add("membership.chunks_duplicate");
  }
  // Cumulative ack: always answer with the next expected chunk, so a
  // restarted receiver (progress reset to 0) rewinds the sender and the
  // stream replays idempotently; a gap send is nacked the same way.
  TransferAckBody ack{body.transferId, next, true};
  send(from, kTransferAck, [&](ByteWriter& w) { ack.writeTo(w); });
  if (body.done && body.chunkSeq < next && joining_) {
    pendingJoinSources_.erase(from);
    if (joinSourcesInitialized_ && pendingJoinSources_.empty()) {
      activateSelf(/*historyIncomplete=*/false);
    }
  }
}

bool VoldemortServer::applyTransferItem(const TransferItemWire& item,
                                        hlc::Timestamp eventTs,
                                        hlc::Timestamp sourceFloor,
                                        uint64_t* graftedEntries) {
  log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  const bool quarantined = quarantine_.count(item.key) > 0;
  const bool known =
      !quarantined && (versions_.find(item.key) != versions_.end() ||
                       bdb_->get(item.key).has_value());

  if (!known && !quarantined && config_.windowLogEnabled &&
      config_.membership.handoffHistory && !item.history.empty() &&
      !wlog.hasHistoryFor(item.key)) {
    // Fresh key arriving with its full source history: graft it under
    // our own entries so diffToPast reaches below the transfer point
    // exactly as on the previous owner.  Single-source-per-key: only a
    // key with no local entries may be grafted, otherwise per-key
    // old/new chains would interleave incoherently.  Observer first —
    // the shadow history must contain everything the log does.
    if (appendObserver_) {
      // A chain whose first entry carries an oldValue implies a value
      // that existed before any logged write (the source's preloaded
      // state): diffToPast below the chain resurrects it via that
      // oldValue, so the shadow needs the implied genesis write too.
      if (item.history.front().oldValue) {
        appendObserver_(log::Entry{item.key, std::nullopt,
                                   item.history.front().oldValue,
                                   hlc::Timestamp{}});
      }
      for (const log::Entry& e : item.history) appendObserver_(e);
    }
    *graftedEntries += wlog.graftHistory(item.history, sourceFloor);
    ++historyGrafts_;
    for (auto& [sid, active] : activeSnapshots_) {
      // The compaction scan restarts under the graft and would roll the
      // key into the captured state.
      if (active.request.kind == core::SnapshotKind::kFull &&
          active.stage < 2) {
        active.graftedSinceCapture.push_back(item.key);
      }
    }
    if (rebalanceFloor_ < sourceFloor) rebalanceFloor_ = sourceFloor;
    bdb_->put(item.key, item.value);
    versions_[item.key] = item.version;
    return true;
  }

  // Value-only path: merge by version vector like an ordinary replicated
  // write (kAfter applies, concurrent merges last-write-wins, stale
  // drops).  A quarantined key is rebuilt outright — the transferred
  // copy is exactly as good as a scrub repair.
  VersionVector stored;
  if (auto it = versions_.find(item.key); it != versions_.end()) {
    stored = it->second;
  }
  const Occurred cmp =
      quarantined ? Occurred::kAfter : item.version.compare(stored);
  if (cmp == Occurred::kBefore || cmp == Occurred::kEqual) return false;
  VersionVector incoming = item.version;
  if (cmp == Occurred::kConcurrent) incoming.merge(stored);
  const OptValue old = quarantined ? OptValue{} : bdb_->get(item.key);
  bdb_->put(item.key, item.value);
  versions_[item.key] = incoming;
  if (config_.windowLogEnabled) {
    logAppend(item.key, old, item.value, eventTs);
    if (!known && !quarantined) {
      // A fresh key without its history: everything below this append
      // is unreachable here — activation must move the floor.
      sawHistorylessKeys_ = true;
    }
  }
  if (quarantined) {
    quarantine_.erase(item.key);
    absentFrom_.erase(item.key);
    storageCounters_.add("storage.keys_superseded");
    if (quarantine_.empty()) completeScrub();
  }
  return false;
}

}  // namespace retro::kv
