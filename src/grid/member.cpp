#include "grid/member.hpp"

#include <cmath>

namespace retro::grid {

namespace {
// Modelled CPU per received message, before the HLC add-on.
constexpr TimeMicros kHeartbeatMicros = 5;
constexpr TimeMicros kSnapshotStartMicros = 200;
constexpr TimeMicros kSnapshotAckMicros = 20;
constexpr TimeMicros kBackupApplyMicros = 40;
/// CPU per message for HLC wrap/unwrap bookkeeping (JVM-calibrated:
/// parse + tick + re-serialize inside the RPC layer).
constexpr TimeMicros kHlcCpuMicros = 22;
/// Window-log per-entry overhead bytes.
constexpr size_t kLogOverheadBytes = 152;
/// Heartbeat broadcast period.
constexpr TimeMicros kHeartbeatPeriodMicros = kMicrosPerSecond;
}  // namespace

GridMember::GridMember(NodeId id, runtime::ExecutionContext& ctx,
                       hlc::PhysicalClock& clock, const PartitionTable& table,
                       MemberConfig config)
    : id_(id),
      ctx_(&ctx),
      table_(&table),
      config_(config),
      disk_(std::make_unique<sim::SimDisk>(ctx, config_.disk, id)),
      executor_(ctx, id),
      retroscope_(clock,
                  log::WindowLogConfig{
                      .maxEntries = 0,
                      .maxBytes = 0,  // set per-partition below
                      .maxAgeMillis = 0,
                      .perEntryOverheadBytes = kLogOverheadBytes,
                  }),
      idAlloc_(id + 1000) {
  // Pre-create owned partitions and their window-logs, splitting the
  // member's log budget across them.
  const auto ownedPartitions = table_->partitionsOwnedBy(id_);
  const uint64_t perPartitionBudget =
      ownedPartitions.empty()
          ? 0
          : config_.logBudgetBytes / ownedPartitions.size();
  for (uint32_t p : ownedPartitions) {
    owned_.emplace(p, PartitionState{});
    if (config_.mode == Mode::kFull) {
      auto& wlog = retroscope_.getLog(partitionLogName(p));
      auto cfg = wlog.config();
      cfg.maxBytes = perPartitionBudget;
      wlog.setConfig(cfg);
    }
  }
  ctx_->registerNode(id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
}

std::string GridMember::partitionLogName(uint32_t partition) {
  return "part-" + std::to_string(partition);
}

const std::unordered_map<Key, Value>* GridMember::partitionData(
    uint32_t p) const {
  auto it = owned_.find(p);
  return it == owned_.end() ? nullptr : &it->second.data;
}

void GridMember::preload(const Key& key, Value value) {
  const uint32_t p = table_->partitionOf(key);
  if (table_->ownerOf(p) == id_) {
    owned_[p].data[key] = std::move(value);
  } else {
    for (NodeId b : table_->backupsOf(p)) {
      if (b == id_) backups_[p][key] = std::move(value);
    }
  }
}

// --- RPC layer: HLC implanted in every remote operation (§IV-B) ---

hlc::Timestamp GridMember::writeHeader(ByteWriter& w) {
  if (config_.mode == Mode::kOriginal) return {};
  return retroscope_.wrapHLC(w);
}

void GridMember::send(NodeId to, uint32_t type,
                      const std::function<void(ByteWriter&)>& body) {
  ByteWriter w;
  const hlc::Timestamp ts = writeHeader(w);
  body(w);
  const uint64_t msgId = ctx_->send(sim::Message{id_, to, type, w.take()});
  if (trace_ && config_.mode != Mode::kOriginal) {
    trace_->onSend(id_, msgId, ts);
  }
}

template <typename Body>
void GridMember::serve(const sim::Message& msg, TimeMicros cost,
                       Handler<Body> handler) {
  const bool hlcOn = config_.mode != Mode::kOriginal;
  auto received = hlc::decodeMessage<Body>(msg.payload, hlcOn);
  if (!received) {
    ++malformedMessages_;
    return;
  }
  if (hlcOn) cost += kHlcCpuMicros;
  executor_.submit(cost, [this, hlcOn, from = msg.from, msgId = msg.msgId,
                          handler,
                          received = std::move(*received)]() mutable {
    if (hlcOn) {
      const hlc::Timestamp ts = retroscope_.timeTick(received.ts);
      if (trace_) trace_->onRecv(id_, msgId, ts);
    }
    (this->*handler)(from, std::move(received.body));
  });
}

void GridMember::onMessage(sim::Message&& msg) {
  using G = GridMember;
  const TimeMicros logMicros =
      config_.mode == Mode::kFull ? config_.logAppendMicros : 0;
  switch (msg.type) {
    case kMapPut:
      return serve(msg, config_.putServiceMicros + logMicros, &G::handlePut);
    case kMapGet: return serve(msg, config_.getServiceMicros, &G::handleGet);
    case kBackupReplicate:
      return serve(msg, kBackupApplyMicros, &G::handleBackup);
    // Health monitoring also goes through the HLC-injecting RPC layer.
    case kHeartbeat: return serve(msg, kHeartbeatMicros, &G::handleHeartbeat);
    case kSnapshotStart:
      return serve(msg, kSnapshotStartMicros, &G::handleSnapshotStart);
    case kSnapshotAck:
      return serve(msg, kSnapshotAckMicros, &G::handleSnapshotAck);
    default: ++malformedMessages_;  // a type this member does not serve
  }
}

// --- Map data path ---

void GridMember::handlePut(NodeId from, MapPutBody body) {
  const uint32_t p = table_->partitionOf(body.key);
  auto it = owned_.find(p);
  if (it == owned_.end()) {
    // Misrouted (we are not the owner): reject.
    send(from, kMapResponse, [&](ByteWriter& w) {
      MapResponseBody resp{body.requestId, false, std::nullopt};
      resp.writeTo(w);
    });
    return;
  }
  if (it->second.locked) {
    // Partition briefly locked by an in-flight snapshot copy: queue the
    // mutation until the copy completes (§VI-A).
    ++queuedBehindLock_;
    it->second.queued.push_back(
        [this, from, body = std::move(body), p]() { applyPut(from, body, p); });
    return;
  }
  applyPut(from, body, p);
}

void GridMember::applyPut(NodeId from, const MapPutBody& body, uint32_t p) {
  ++putsProcessed_;
  PartitionState& part = owned_[p];
  OptValue old;
  auto dit = part.data.find(body.key);
  if (dit != part.data.end()) old = dit->second;
  part.data[body.key] = body.value;

  if (config_.mode == Mode::kFull) {
    retroscope_.appendToLog(partitionLogName(p), body.key, old, body.value,
                            retroscope_.now());
  }

  // Replicate to the backup members (fire-and-forget; HLC implanted).
  for (NodeId b : table_->backupsOf(p)) {
    send(b, kBackupReplicate, [&](ByteWriter& w) {
      BackupReplicateBody rep{p, body.key, body.value};
      rep.writeTo(w);
    });
  }

  send(from, kMapResponse, [&](ByteWriter& w) {
    MapResponseBody resp{body.requestId, true, std::nullopt};
    resp.writeTo(w);
  });
}

void GridMember::handleGet(NodeId from, MapGetBody body) {
  const uint32_t p = table_->partitionOf(body.key);
  MapResponseBody resp;
  resp.requestId = body.requestId;
  auto it = owned_.find(p);
  if (it == owned_.end()) {
    resp.ok = false;
  } else {
    auto dit = it->second.data.find(body.key);
    if (dit != it->second.data.end()) resp.value = dit->second;
  }
  send(from, kMapResponse, [&](ByteWriter& w) { resp.writeTo(w); });
}

void GridMember::handleBackup(NodeId /*from*/, BackupReplicateBody body) {
  backups_[body.partition][body.key] = std::move(body.value);
}

// --- Heartbeats ---

void GridMember::startHeartbeats() {
  if (heartbeating_) return;
  heartbeating_ = true;
  heartbeatTick();
}

void GridMember::heartbeatTick() {
  for (size_t m = 0; m < table_->memberCount(); ++m) {
    if (static_cast<NodeId>(m) == id_) continue;
    send(static_cast<NodeId>(m), kHeartbeat, [&](ByteWriter& w) {
      HeartbeatBody hb{heartbeatSeq_};
      hb.writeTo(w);
    });
  }
  ++heartbeatSeq_;
  ctx_->scheduleDaemon(id_, kHeartbeatPeriodMicros,
                       [this] { heartbeatTick(); });
}

// --- Snapshot protocol (§IV-B) ---

core::SnapshotId GridMember::initiateSnapshot(hlc::Timestamp target,
                                              SnapshotCallback done) {
  core::SnapshotRequest request;
  request.id = idAlloc_.next();
  request.target = target;
  request.kind = core::SnapshotKind::kFull;

  std::vector<NodeId> members;
  for (size_t m = 0; m < table_->memberCount(); ++m) {
    members.push_back(static_cast<NodeId>(m));
  }
  sessions_.emplace(request.id,
                    core::SnapshotSession(request, members, ctx_->now()));
  callbacks_.emplace(request.id, std::move(done));

  // Broadcast to the entire cluster (including ourselves, via the
  // network for uniform timing).
  for (NodeId m : members) {
    if (m == id_) {
      GridSnapshotStartBody body{request};
      handleSnapshotStart(id_, body);
    } else if (config_.snapshotRequestTimeoutMicros > 0) {
      pendingStarts_[{request.id, m}] = PendingStart{};
      sendSnapshotStart(request.id, m);
    } else {
      send(m, kSnapshotStart, [&](ByteWriter& w) {
        GridSnapshotStartBody body{request};
        body.writeTo(w);
      });
    }
  }
  return request.id;
}

void GridMember::sendSnapshotStart(core::SnapshotId id, NodeId member) {
  auto it = pendingStarts_.find({id, member});
  if (it == pendingStarts_.end()) return;
  auto sess = sessions_.find(id);
  if (sess == sessions_.end() || sess->second.isDone()) {
    pendingStarts_.erase(it);
    return;
  }
  PendingStart& ps = it->second;
  ++ps.attempts;
  if (ps.attempts > 1) sess->second.noteRetry(member);
  send(member, kSnapshotStart, [&](ByteWriter& w) {
    GridSnapshotStartBody body{sess->second.request()};
    body.writeTo(w);
  });
  const uint64_t gen = ++ps.generation;
  ctx_->schedule(id_, config_.snapshotRequestTimeoutMicros, [this, id, member, gen] {
    onStartTimeout(id, member, gen);
  });
}

void GridMember::onStartTimeout(core::SnapshotId id, NodeId member,
                                uint64_t generation) {
  auto it = pendingStarts_.find({id, member});
  if (it == pendingStarts_.end() || it->second.generation != generation) return;
  auto sess = sessions_.find(id);
  if (sess == sessions_.end() || sess->second.isDone()) {
    pendingStarts_.erase(it);
    return;
  }
  if (it->second.attempts < config_.snapshotMaxAttempts) {
    sendSnapshotStart(id, member);  // re-send at the timeout itself
    return;
  }
  pendingStarts_.erase(it);
  if (sess->second.onNodeUnavailable(member, ctx_->now(),
                                     core::FailureReason::kTimedOut)) {
    finishSession(id, sess->second);
  }
}

void GridMember::finishSession(core::SnapshotId id,
                               core::SnapshotSession& session) {
  pendingStarts_.erase(pendingStarts_.lower_bound({id, 0}),
                       pendingStarts_.lower_bound({id + 1, 0}));
  auto cb = callbacks_.find(id);
  if (cb != callbacks_.end()) {
    if (cb->second) cb->second(session);
    callbacks_.erase(cb);
  }
}

core::SnapshotId GridMember::initiateSnapshotNow(SnapshotCallback done) {
  const hlc::Timestamp now = retroscope_.timeTick();
  if (trace_ && config_.mode != Mode::kOriginal) trace_->onLocal(id_, now);
  return initiateSnapshot(now, std::move(done));
}

void GridMember::handleSnapshotStart(NodeId from, GridSnapshotStartBody body) {
  // Idempotency under initiator retries: a snapshot already resolved is
  // re-acked with the original outcome, one still executing is left to
  // finish (its ack is on the way).
  if (auto cached = completedAcks_.find(body.request.id);
      cached != completedAcks_.end()) {
    ++duplicateSnapshotStarts_;
    if (from == id_) {
      handleSnapshotAck(id_, GridSnapshotAckBody{cached->second});
    } else {
      send(from, kSnapshotAck, [&](ByteWriter& w) {
        GridSnapshotAckBody ackBody{cached->second};
        ackBody.writeTo(w);
      });
    }
    return;
  }
  if (activeSnapshots_.contains(body.request.id)) {
    ++duplicateSnapshotStarts_;
    return;
  }

  ActiveSnapshot active;
  active.request = body.request;
  active.initiator = from;
  active.captureTime = retroscope_.now();
  for (const auto& [p, st] : owned_) {
    (void)st;
    active.pendingPartitions.push_back(p);
  }
  const core::SnapshotId id = body.request.id;

  if (config_.mode == Mode::kFull) {
    for (auto& [p, st] : owned_) {
      (void)st;
      retroscope_.getLog(partitionLogName(p)).unbound();
    }
  }

  activeSnapshots_.emplace(id, std::move(active));

  if (owned_.empty()) {
    memberSnapshotDone(id);
    return;
  }
  // One snapshot operation per partition, chained so snapshot work
  // interleaves with normal traffic (fine-grained concurrency control).
  runNextPartitionSnapshot(id);
}

void GridMember::runNextPartitionSnapshot(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  if (it->second.pendingPartitions.empty()) {
    memberSnapshotDone(id);
    return;
  }
  const uint32_t p = it->second.pendingPartitions.back();
  it->second.pendingPartitions.pop_back();
  runPartitionSnapshot(id, p);
}

void GridMember::runPartitionSnapshot(core::SnapshotId id, uint32_t p) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  PartitionState& part = owned_[p];

  // Lock the partition's keys while copying: writes queue (§VI-A).
  part.locked = true;
  const auto copyCost = static_cast<TimeMicros>(std::llround(
      static_cast<double>(part.data.size()) * config_.copyMicrosPerEntry));

  executor_.submit(copyCost, [this, id, p] {
    auto jt = activeSnapshots_.find(id);
    PartitionState& partNow = owned_[p];

    // Copy is done: capture the partition state, release the lock and
    // drain writes that queued behind it.
    std::unordered_map<Key, Value> copied;
    if (jt != activeSnapshots_.end()) copied = partNow.data;
    const hlc::Timestamp captureTime =
        config_.mode == Mode::kOriginal ? hlc::Timestamp{}
                                        : retroscope_.now();
    partNow.locked = false;
    auto queued = std::move(partNow.queued);
    partNow.queued.clear();
    for (auto& fn : queued) fn();

    if (jt == activeSnapshots_.end()) return;
    ActiveSnapshot& active = jt->second;

    // Traverse the partition's window-log back from the capture time to
    // the target and undo the changes.
    log::DiffStats stats;
    if (config_.mode == Mode::kFull) {
      const auto& wlog = retroscope_.getLog(partitionLogName(p));
      auto diff = wlog.diffBackward(captureTime, active.request.target, &stats);
      diffTotals_.accumulate(stats);
      ++diffCalls_;
      if (!diff.isOk()) {
        active.outOfReach = true;
      } else {
        diff.value().applyTo(copied);
      }
    }

    for (const auto& [k, v] : copied) {
      active.snapshotBytes += k.size() + v.size();
    }
    active.state.merge(copied);

    const auto traverseCost = static_cast<TimeMicros>(std::llround(
        static_cast<double>(stats.entriesTraversed) *
            config_.traverseMicrosPerEntry +
        static_cast<double>(stats.indexSeeks + stats.keysExamined) *
            config_.indexProbeMicros));
    executor_.submit(traverseCost,
                     [this, id] { runNextPartitionSnapshot(id); });
  });
}

void GridMember::memberSnapshotDone(core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return;
  ActiveSnapshot active = std::move(it->second);
  activeSnapshots_.erase(it);

  if (config_.mode == Mode::kFull && activeSnapshots_.empty()) {
    for (auto& [p, st] : owned_) {
      (void)st;
      retroscope_.getLog(partitionLogName(p)).rebound();
    }
  }

  const auto finish = [this, id, initiator = active.initiator,
                       outOfReach = active.outOfReach,
                       bytes = active.snapshotBytes] {
    core::SnapshotAck ack{id, id_,
                          outOfReach ? core::LocalSnapshotStatus::kOutOfReach
                                     : core::LocalSnapshotStatus::kComplete,
                          bytes};
    completedAcks_[id] = ack;
    if (!outOfReach) ++snapshotsCompleted_;
    if (initiator == id_) {
      handleSnapshotAck(id_, GridSnapshotAckBody{ack});
    } else {
      send(initiator, kSnapshotAck, [&](ByteWriter& w) {
        GridSnapshotAckBody body{ack};
        body.writeTo(w);
      });
    }
  };

  if (!active.outOfReach) {
    core::LocalSnapshot snap;
    snap.id = id;
    snap.kind = core::SnapshotKind::kFull;
    snap.target = active.request.target;
    snap.node = id_;
    snap.state = std::move(active.state);
    snap.persistedBytes = active.snapshotBytes;
    snapshotStore_.put(std::move(snap));
    // The aggregator persists the collected partition snapshots to disk
    // *asynchronously* (§IV-B): the ack does not wait for the write —
    // that is why in-memory snapshots complete in ~100 ms (Fig. 20).
    disk_->write(active.snapshotBytes, [] {});
  }
  finish();
}

void GridMember::handleSnapshotAck(NodeId /*from*/, GridSnapshotAckBody body) {
  auto it = sessions_.find(body.ack.id);
  if (it == sessions_.end()) return;
  // Cancel any pending resend timer for the answering member.
  pendingStarts_.erase({body.ack.id, body.ack.node});
  if (it->second.onAck(body.ack, ctx_->now())) {
    finishSession(body.ack.id, it->second);
  }
}

}  // namespace retro::grid
