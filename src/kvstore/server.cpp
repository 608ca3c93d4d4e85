#include "kvstore/server.hpp"

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
      costs_(config_, ctx.isRealtime()) {
  disk_->attachFaults(faults_.get());
  if (config_.recovery.persistWindowLog) {
    wal_ = std::make_unique<log::WalJournal>();
  }
  snapshotStore_.setDisposer(
      [this](core::LocalSnapshot&& snap) { recycle(std::move(snap)); });
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
  ageRecycledState();
  if (alive_) {
    // Fold the journal tail into an on-disk checkpoint of the window-log
    // so a restart replays only the appends made since this point.
    const log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
    const uint64_t appends = retroscope_.appendCount();
    if (appends != lastCheckpointAppendCount_) {
      // Fold only the journal tail, sized via the log's mean entry size:
      // rewriting the whole window-log every period would saturate the
      // serial disk under write-heavy load and stall snapshot copies.
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
    if (lost > 0) storageCounters_.add("storage.wal_frames_lost_fsync", lost);
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
  // Re-open the store — BDB-JE recovers its in-memory index by reading
  // the log segments back from disk — then reload the last window-log
  // checkpoint and replay the journal tail written since.
  uint64_t bytes = bdb_->totalSegmentBytes();
  uint64_t tail = 0;
  if (config_.recovery.persistWindowLog) {
    bytes += retroscope_.getLog(kStoreLog).accountedBytes();
    tail = retroscope_.appendCount() - lastCheckpointAppendCount_;
  }
  disk_->read(bytes, [this, inc, replayCpu = costs_.restart(bytes, tail),
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
      // The restored files are fresh, checksummed copies; any quarantine
      // belongs to the abandoned timeline.
      quarantine_.clear();
      absentFrom_.clear();
      scrubActive_ = false;
      ++repairGeneration_;
      truncateLogToNow();
      updateMemoryModel();
      done(Status::ok());
    });
  });
}

void VoldemortServer::updateMemoryModel() {
  if (costs_.heapExhausted(bdb_->liveDataBytes(),
                           retroscope_.totalLogBytes())) {
    crash();  // OutOfMemory
  }
  if (alive_) executor_.setSlowdownFactor(costs_.gcSlowdown());
}

template <typename Body>
void VoldemortServer::serve(const sim::Message& msg, Handler<Body> handler) {
  auto received = hlc::decodeMessage<Body>(msg.payload);
  if (!received) {
    ++malformedMessages_;
    return;
  }
  // Priced before the task below moves the body out.
  const TimeMicros cost = costs_.receive(received->body);
  // Tasks queued behind the executor check the incarnation as well as
  // liveness: a message accepted before a crash must not execute inside a
  // later incarnation after restart.
  executor_.submit(cost, [this, inc = incarnation_, from = msg.from,
                          msgId = msg.msgId, handler,
                          received = std::move(*received)]() mutable {
    if (!alive_ || incarnation_ != inc) return;
    const hlc::Timestamp eventTs = retroscope_.timeTick(received.ts);
    if (trace_) trace_->onRecv(id_, msgId, eventTs);
    (this->*handler)(eventTs, from, std::move(received.body));
  });
}

void VoldemortServer::onMessage(sim::Message&& msg) {
  if (!alive_) return;
  using S = VoldemortServer;
  switch (msg.type) {
    case kPutRequest: return serve(msg, &S::handlePut);
    case kGetRequest: return serve(msg, &S::handleGet);
    case kSnapshotRequest: return serve(msg, &S::handleSnapshotRequest);
    case kQueryRequest: return serve(msg, &S::handleQueryRequest);
    case kProgressRequest: return serve(msg, &S::handleProgressRequest);
    case kRepairRequest: return serve(msg, &S::handleRepairRequest);
    case kRepairResponse: return serve(msg, &S::handleRepairResponse);
    case kGossip: return serve(msg, &S::handleGossip);
    case kJoinRequest: return serve(msg, &S::handleJoinRequest);
    case kJoinResponse: return serve(msg, &S::handleJoinResponse);
    case kTransferChunk: return serve(msg, &S::handleTransferChunk);
    case kTransferAck: return serve(msg, &S::handleTransferAck);
    default: ++malformedMessages_;  // a type this node does not serve
  }
}

void VoldemortServer::runChunks(uint64_t id, ChunkStep step, Stage next) {
  const std::optional<Chunk> chunk = (this->*step)(id);
  if (!chunk) return;
  executor_.submit(chunk->cost, [this, id, step, next, last = chunk->last,
                                 inc = incarnation_] {
    if (incarnation_ != inc) return;
    if (last) {
      (this->*next)(id);
    } else {
      runChunks(id, step, next);
    }
  });
}

template <typename Response>
void VoldemortServer::stampView(Response& resp, uint64_t clientEpoch) {
  if (!membershipEnabled() || !membershipStarted_) return;
  resp.viewEpoch = view_.epoch();
  if (clientEpoch < view_.epoch()) {
    resp.view = view_;
    membershipCounters_.add("membership.stale_view_replies");
  }
}

void VoldemortServer::handlePut(hlc::Timestamp eventTs, NodeId from,
                                PutRequestBody body) {
  ++putsProcessed_;
  PutResponseBody resp;
  resp.requestId = body.requestId;
  auto& stored = versions_[body.key];
  const Occurred cmp = body.version.compare(stored);
  // A stale write leaves the data alone but reports success (idempotent
  // replay).
  if (cmp != Occurred::kBefore && cmp != Occurred::kEqual) {
    if (cmp == Occurred::kConcurrent) {
      // Conflict: resolve last-write-wins on HLC order (the write being
      // applied now is the latest event this node has seen) and merge the
      // vectors so causality is preserved going forward (§VIII).
      ++conflictsDetected_;
      resp.conflictDetected = true;
      body.version.merge(stored);
    }
    stored = body.version;
    const OptValue old = bdb_->get(body.key);
    bdb_->put(body.key, body.value);
    if (config_.windowLogEnabled) logAppend(body.key, old, body.value, eventTs);
    // A fresh client write supersedes a quarantined record: the key's
    // durable state is trustworthy again without a replica round-trip.
    if (quarantine_.contains(body.key)) {
      releaseQuarantined(body.key, "storage.keys_superseded");
      if (quarantine_.empty()) completeScrub();
    }
    updateMemoryModel();
    if (!alive_) return;  // the put that broke the heap's back
  }
  stampView(resp, body.viewEpoch);
  send(from, kPutResponse, resp);
}

void VoldemortServer::handleGet(hlc::Timestamp /*eventTs*/, NodeId from,
                                GetRequestBody body) {
  ++getsProcessed_;
  GetResponseBody resp;
  resp.requestId = body.requestId;
  resp.value = bdb_->get(body.key);
  auto it = versions_.find(body.key);
  if (it != versions_.end()) resp.version = it->second;
  stampView(resp, body.viewEpoch);
  send(from, kGetResponse, resp);
}

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

void VoldemortServer::truncateLogToNow() {
  log::WindowLog& wlog = retroscope_.getLog(kStoreLog);
  wlog.truncateThrough(retroscope_.now());
  if (wal_) wal_->reset(wlog.nextSeq());
}

void VoldemortServer::handleProgressRequest(hlc::Timestamp /*eventTs*/,
                                            NodeId from,
                                            ProgressRequestBody body) {
  ProgressReplyBody reply{.snapshotId = body.snapshotId};
  if (auto it = activeSnapshots_.find(body.snapshotId);
      it != activeSnapshots_.end()) {
    reply.status = core::LocalSnapshotStatus::kPending;
    reply.stage = it->second.stage;
  } else if (snapshotStore_.contains(body.snapshotId)) {
    reply.status = core::LocalSnapshotStatus::kComplete;
    reply.stage = 3;
  } else {
    reply.status = core::LocalSnapshotStatus::kFailed;
  }
  send(from, kProgressReply, reply);
}

}  // namespace retro::kv
