// Snapshot execution (Fig. 8): data copy -> window-log compaction ->
// window-log application, each stage in bounded chunks through
// runChunks, and the recycled state a full snapshot's copy reuses.
#include "kvstore/server.hpp"

namespace retro::kv {

void VoldemortServer::handleSnapshotRequest(hlc::Timestamp /*eventTs*/,
                                            NodeId from,
                                            SnapshotRequestBody body) {
  // Idempotency under initiator retries: a request already resolved is
  // re-acked with the original outcome; one still executing or waiting
  // on its base is left alone (its ack goes out when it finishes).
  const core::SnapshotId id = body.request.id;
  if (auto cached = completedAcks_.find(id); cached != completedAcks_.end()) {
    ++duplicateSnapshotRequests_;
    sendSnapshotAck(from, id, cached->second.first, cached->second.second);
    return;
  }
  bool inFlight = activeSnapshots_.contains(id);
  for (const auto& [base, waiters] : pendingOnBase_) {
    for (const auto& waiter : waiters) inFlight |= waiter.request.id == id;
  }
  if (inFlight) {
    ++duplicateSnapshotRequests_;
    return;
  }

  // Quarantined records make any cut through this node untrustworthy:
  // refuse loudly (kCorrupted) rather than serve a silently wrong
  // snapshot.  Deliberately not cached in completedAcks_, so an
  // initiator retry after the scrub repairs the keys can succeed.
  if (!quarantine_.empty()) {
    storageCounters_.add("storage.snapshot_refusals");
    sendSnapshotAck(from, id, core::LocalSnapshotStatus::kCorrupted, 0);
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
    // When a rebalance moved the reachable floor (a key range arrived
    // without its full history), answer kRebalancing: the membership
    // changed underneath the cut, rather than the window sliding past.
    core::LocalSnapshotStatus status = core::LocalSnapshotStatus::kOutOfReach;
    if (membershipEnabled() && rebalanceFloor_ > hlc::Timestamp{} &&
        body.request.target < rebalanceFloor_) {
      status = core::LocalSnapshotStatus::kRebalancing;
      membershipCounters_.add("membership.rebalance_refusals");
    }
    finishSnapshot(id, status, 0);
    sendSnapshotAck(from, id, status, 0);
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
    runChunks(id, &VoldemortServer::copyChunk, &VoldemortServer::copyPartDone);
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

std::optional<VoldemortServer::Chunk> VoldemortServer::copyChunk(
    core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return std::nullopt;
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
    return std::nullopt;
  }
  return Chunk{costs_.copy(bytes), read == store::BdbStore::ViewRead::kDone};
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
  runChunks(id, &VoldemortServer::compactChunk,
            &VoldemortServer::snapshotApply);
}

std::optional<VoldemortServer::Chunk> VoldemortServer::compactChunk(
    core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return std::nullopt;
  ActiveSnapshot& active = it->second;
  log::DiffStats stats;
  auto visited = retroscope_.getLog(kStoreLog).advance(
      active.scan, config_.copyChunkBytes, &stats);
  if (!visited.isOk()) {
    failSnapshot(id, visited.status());
    return std::nullopt;
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
  return Chunk{costs_.compaction(stats), done};
}

void VoldemortServer::compactThroughArchive(core::SnapshotId id) {
  ActiveSnapshot& active = activeSnapshots_.at(id);
  log::ArchiveDiffStats astats;
  auto diff = archive_->diffBackward(retroscope_.getLog(kStoreLog),
                                     active.captureTime, active.request.target,
                                     &astats);
  if (!diff.isOk()) {
    failSnapshot(id, diff.status());
    return;
  }
  log::DiffStats stats = astats.live;
  stats.keysInDiff = astats.keysInDiff;
  stats.diffDataBytes = astats.diffDataBytes;
  diffTotals_.accumulate(stats);
  ++diffCalls_;
  active.deltaStats = stats;
  active.delta = std::move(diff).value();
  // Archived entries are paged in from disk before the application stage.
  auto proceed = [this, id, cost = costs_.compaction(astats),
                  inc = incarnation_] {
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
  it->second.stage = 2;
  runChunks(id, &VoldemortServer::applyChunk, &VoldemortServer::writeSnapshot);
}

std::optional<VoldemortServer::Chunk> VoldemortServer::applyChunk(
    core::SnapshotId id) {
  auto it = activeSnapshots_.find(id);
  if (it == activeSnapshots_.end()) return std::nullopt;
  ActiveSnapshot& active = it->second;
  if (active.request.kind != core::SnapshotKind::kFull) {
    return Chunk{costs_.apply(active.deltaStats.keysInDiff), true};
  }
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
  return Chunk{costs_.apply(keys), active.delta.empty()};
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
  const core::SnapshotRequest& req = act.request;
  size_t persisted = act.deltaStats.diffDataBytes;
  if (req.kind == core::SnapshotKind::kRolling) {
    if (!snapshotStore_.roll(*req.baseId, req.id, req.target, act.delta)
             .isOk()) {
      finishSnapshot(id, core::LocalSnapshotStatus::kFailed, 0);
      return;
    }
  } else {
    core::LocalSnapshot snap;
    snap.id = req.id;
    snap.kind = req.kind;
    snap.target = req.target;
    snap.node = id_;
    snap.baseId = req.baseId;
    if (req.kind == core::SnapshotKind::kFull) {
      snap.state = std::move(act.stateAtCapture);
      for (const Key& key : act.graftedSinceCapture) snap.state.erase(key);
      // On disk: the copied database files plus the applied changes.
      persisted += bdb_->liveDataBytes();
    } else {
      // Store only the delta; application deferred to retrieval time.
      snap.delta = std::move(act.delta);
    }
    snap.persistedBytes = persisted;
    snapshotStore_.put(std::move(snap));
  }
  finishSnapshot(id, core::LocalSnapshotStatus::kComplete, persisted);
}

void VoldemortServer::finishSnapshot(core::SnapshotId id,
                                     core::LocalSnapshotStatus status,
                                     size_t persistedBytes) {
  std::optional<NodeId> initiator;
  if (auto it = activeSnapshots_.find(id); it != activeSnapshots_.end()) {
    initiator = it->second.initiator;
    activeSnapshots_.erase(it);
  }
  // Release converted snapshots that were waiting for this base.
  if (auto waiters = pendingOnBase_.extract(id)) {
    for (auto& waiter : waiters.mapped()) {
      const core::SnapshotId waiterId = waiter.request.id;
      activeSnapshots_.emplace(waiterId, std::move(waiter));
      if (status == core::LocalSnapshotStatus::kComplete) {
        snapshotCompaction(waiterId);
      } else {
        // Base never materialized: the dependent snapshot fails too.
        finishSnapshot(waiterId, core::LocalSnapshotStatus::kFailed, 0);
      }
    }
  }
  if (activeSnapshots_.empty() && pendingOnBase_.empty()) {
    retroscope_.getLog(kStoreLog).rebound();
  }
  if (status == core::LocalSnapshotStatus::kComplete) ++snapshotsCompleted_;
  completedAcks_[id] = {status, persistedBytes};
  if (initiator) sendSnapshotAck(*initiator, id, status, persistedBytes);
}

void VoldemortServer::failSnapshot(core::SnapshotId id, const Status& why) {
  finishSnapshot(id,
                 why.code() == StatusCode::kOutOfRange
                     ? core::LocalSnapshotStatus::kOutOfReach
                     : core::LocalSnapshotStatus::kFailed,
                 0);
}

void VoldemortServer::sendSnapshotAck(NodeId to, core::SnapshotId id,
                                      core::LocalSnapshotStatus status,
                                      size_t persistedBytes) {
  send(to, kSnapshotAck, SnapshotAckBody{{id, id_, status, persistedBytes}});
}

void VoldemortServer::recycle(core::LocalSnapshot&& snap) {
  if (snap.state.size() > recycledState_.size()) {
    std::swap(snap.state, recycledState_);
    recycledAged_ = false;
  }
  ctx_->dispose(std::make_shared<core::LocalSnapshot>(std::move(snap)));
}

void VoldemortServer::ageRecycledState() {
  // Freed off this thread, so its memory serves other allocations again.
  if (recycledState_.empty() || !activeSnapshots_.empty()) return;
  if (recycledAged_) {
    ctx_->dispose(std::make_shared<std::unordered_map<Key, Value>>(
        std::exchange(recycledState_, {})));
  }
  recycledAged_ = !recycledAged_;
}

}  // namespace retro::kv
