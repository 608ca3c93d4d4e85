// Key-range transfer: stop-and-wait streams of values and window-log
// history to a joiner or, on leave, to the members inheriting a range.
#include "kvstore/server.hpp"

#include "runtime/retry.hpp"

namespace retro::kv {

namespace {
/// Retransmission attempt bound per transfer chunk; an exhausted chunk
/// aborts the whole stream.
constexpr uint32_t kMaxChunkAttempts = 5;
}  // namespace

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
  const auto replicates = [&](const Ring& ring, const Key& k) {
    const auto pl = ring.preferenceList(k, nrep);
    return std::find(pl.begin(), pl.end(), target) != pl.end();
  };
  std::vector<TransferItemWire> items;
  for (const Key& k : keys) {
    if (quarantine_.count(k) > 0) continue;  // never spread corruption
    if (!replicates(targetRing, k)) continue;
    // On a drain, skip keys the target already replicates.
    if (drain && oldRing != nullptr && replicates(*oldRing, k)) continue;
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
  // An empty stream still sends one (final) chunk.
  for (size_t i = 0; i < items.size() || t.chunks.empty(); i += kChunkKeys) {
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
    endTransfer(transferId, "membership.transfers_aborted");
    return;
  }
  ++t.attempts;
  ++t.totalSends;
  membershipCounters_.add("membership.chunks_sent");
  send(t.target, kTransferChunk, t.chunks[t.nextChunk]);
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
    endTransfer(transferId, "membership.transfers_aborted");
    return;
  }
  membershipCounters_.add("membership.chunks_resent");
  sendTransferChunk(transferId);
}

void VoldemortServer::endTransfer(uint64_t transferId, const char* counter) {
  auto it = outbound_.find(transferId);
  if (it == outbound_.end()) return;
  const bool drain = it->second.drain;
  outbound_.erase(it);
  membershipCounters_.add(counter);
  // An aborted join stream leaves the joiner waiting: its join timeout
  // abandons us and moves its floor.  A drain stream, finished or
  // aborted, no longer holds the departure open.
  if (drain) finishLeaveDrain();
}

void VoldemortServer::handleTransferAck(hlc::Timestamp /*eventTs*/,
                                        NodeId /*from*/, TransferAckBody body) {
  auto it = outbound_.find(body.transferId);
  if (it == outbound_.end()) return;
  OutboundTransfer& t = it->second;
  ++t.generation;  // cancel the armed retransmission
  const auto acked = static_cast<size_t>(body.chunkSeq);
  if (acked != t.nextChunk) {
    // Below nextChunk, the receiver lost its inbound progress
    // (crash/restart) and expects an earlier chunk: rewind and replay —
    // applications are idempotent.
    if (acked < t.nextChunk) {
      membershipCounters_.add("membership.stream_rewinds");
    }
    t.nextChunk = acked;
    t.attempts = 0;
  }
  // acked == nextChunk: our previous send was lost; resend it now.
  if (t.nextChunk >= t.chunks.size()) {
    endTransfer(body.transferId, "membership.transfers_completed");
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
      walDirty |= applyTransferItem(item, eventTs, body.sourceFloor,
                                    &graftedEntries);
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
  send(from, kTransferAck, TransferAckBody{body.transferId, next, true});
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
    // our own entries so diffToPast reaches below the transfer point as
    // on the previous owner.  Only a key with no local entries may be
    // grafted, or per-key old/new chains would interleave.  Observer
    // first: the shadow history must contain everything the log does.
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
    releaseQuarantined(item.key, "storage.keys_superseded");
    if (quarantine_.empty()) completeScrub();
  }
  return false;
}

}  // namespace retro::kv
