// Storage integrity: corruption-aware recovery (WAL replay, latent rot),
// and the scrub that rebuilds quarantined keys from ring replicas.
#include "kvstore/server.hpp"

namespace retro::kv {

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
    // Rotate through the candidates across rounds so a crashed or
    // corrupted-too replica doesn't starve the repair.
    const std::vector<NodeId> candidates = repairCandidates(k);
    if (!candidates.empty()) {
      batches[candidates[(scrubRound_ - 1) % candidates.size()]].push_back(k);
    }
  }
  if (batches.empty()) {
    scrubActive_ = false;
    storageCounters_.add("storage.repair_no_peers");
    return;
  }
  pendingRepairReplies_ = batches.size();
  for (const auto& [peer, keys] : batches) {
    storageCounters_.add("storage.repair_requests");
    send(peer, kRepairRequest, RepairRequestBody{generation, keys});
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
  truncateLogToNow();
  storageCounters_.add("storage.ranges_repaired");
  updateMemoryModel();
}

std::vector<NodeId> VoldemortServer::repairCandidates(const Key& key) const {
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
  return candidates;
}

void VoldemortServer::releaseQuarantined(const Key& key,
                                         const char* counter) {
  quarantine_.erase(key);
  absentFrom_.erase(key);
  storageCounters_.add(counter);
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
  send(from, kRepairResponse, resp);
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
      releaseQuarantined(item.key, "storage.keys_repaired");
    } else {
      // One replica's "does not exist" is not proof — another candidate
      // may hold the key.  Tombstone only when every candidate voted.
      auto& votes = absentFrom_[item.key];
      votes.insert(from);
      if (votes.size() >= repairCandidates(item.key).size()) {
        if (config_.windowLogEnabled) {
          logAppend(item.key, std::nullopt, std::nullopt, eventTs);
        }
        releaseQuarantined(item.key, "storage.keys_unrecoverable");
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

}  // namespace retro::kv
