#include "kvstore/client.hpp"

#include <algorithm>

#include "runtime/retry.hpp"

namespace retro::kv {

VoldemortClient::VoldemortClient(NodeId id, runtime::ExecutionContext& ctx,
                                 hlc::PhysicalClock& clock, const Ring& ring,
                                 ClientConfig config)
    : id_(id),
      ctx_(&ctx),
      clock_(clock),
      ring_(&ring),
      config_(config) {
  ctx_->registerNode(id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
}

void VoldemortClient::put(const Key& key, Value value, PutCallback done) {
  const uint64_t reqId = nextRequestId_++;
  auto replicas = routingRing()->preferenceList(key, config_.replicas);

  // Client-side versioning: bump our slot on the last version we saw for
  // this key so replicas can order replayed/raced writes.
  // Cap on the per-key version cache (cleared when exceeded).
  constexpr size_t kVersionCacheCap = 200'000;
  if (versionCache_.size() > kVersionCacheCap) versionCache_.clear();
  VersionVector& version = versionCache_[key];
  version.increment(id_);

  PendingOp op;
  op.isPut = true;
  op.needed = std::min(config_.requiredWrites, replicas.size());
  op.outstanding = replicas.size();
  op.startedAt = ctx_->now();
  op.key = key;
  op.putDone = std::move(done);
  op.version = version;
  if (config_.opTimeoutMicros > 0) op.retriesLeft = config_.maxRetries;
  if (op.retriesLeft > 0) op.putValue = value;
  pending_.emplace(reqId, std::move(op));

  PutRequestBody body;
  body.requestId = reqId;
  body.key = key;
  body.value = std::move(value);
  body.version = version;
  body.viewEpoch = viewEpoch_;

  // The client replicates the item itself: one message per replica.
  for (NodeId server : replicas) {
    ByteWriter w;
    const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
    body.writeTo(w);
    const uint64_t msgId =
        ctx_->send(sim::Message{id_, server, kPutRequest, w.take()});
    if (trace_) trace_->onSend(id_, msgId, ts);
  }
  armTimeout(reqId);
}

void VoldemortClient::get(const Key& key, GetCallback done) {
  const uint64_t reqId = nextRequestId_++;
  auto replicas = routingRing()->preferenceList(key, config_.replicas);
  const size_t toAsk = std::min(config_.requiredReads, replicas.size());

  PendingOp op;
  op.isPut = false;
  op.needed = toAsk;
  op.outstanding = toAsk;
  op.startedAt = ctx_->now();
  op.key = key;
  op.getDone = std::move(done);
  op.replicasAsked = toAsk;
  if (config_.opTimeoutMicros > 0) op.retriesLeft = config_.maxRetries;
  pending_.emplace(reqId, std::move(op));

  GetRequestBody body;
  body.requestId = reqId;
  body.key = key;
  body.viewEpoch = viewEpoch_;
  for (size_t i = 0; i < toAsk; ++i) {
    ByteWriter w;
    const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
    body.writeTo(w);
    const uint64_t msgId =
        ctx_->send(sim::Message{id_, replicas[i], kGetRequest, w.take()});
    if (trace_) trace_->onSend(id_, msgId, ts);
  }
  armTimeout(reqId);
}

void VoldemortClient::armTimeout(uint64_t reqId) {
  if (config_.opTimeoutMicros <= 0) return;
  ctx_->schedule(id_, config_.opTimeoutMicros, [this, reqId] {
    auto it = pending_.find(reqId);
    if (it == pending_.end() || it->second.completed) return;
    if (it->second.retriesLeft > 0) {
      --it->second.retriesLeft;
      ++opsRetried_;
      const uint32_t attempt = ++it->second.retriesUsed;
      // Capped backoff before the re-send (shared runtime/retry.hpp
      // policy); base == 0 keeps the legacy immediate re-send.
      constexpr double kRetryJitter = 0.2;  // deterministic jitter fraction
      const TimeMicros backoff = runtime::cappedBackoffDelay(
          config_.retryBackoffBaseMicros, config_.retryBackoffCapMicros,
          kRetryJitter, attempt, runtime::retryJitterKey(reqId, id_, attempt));
      if (backoff > 0) {
        ctx_->schedule(id_, backoff, [this, reqId] {
          auto jt = pending_.find(reqId);
          if (jt == pending_.end() || jt->second.completed) return;
          retryOp(reqId, jt->second);
          armTimeout(reqId);
        });
      } else {
        retryOp(reqId, it->second);
        armTimeout(reqId);
      }
      return;
    }
    ++opsTimedOut_;
    PendingOp op = std::move(it->second);
    pending_.erase(it);
    if (op.isPut) {
      completePut(reqId, op, /*ok=*/false);
    } else {
      completeGet(reqId, op, /*ok=*/false);
    }
  });
}

void VoldemortClient::retryOp(uint64_t reqId, PendingOp& op) {
  // Recomputed against the *current* ring: a retry after a stale-view
  // redirect naturally lands on the post-rebalance preference list.
  auto replicas = routingRing()->preferenceList(op.key, config_.replicas);
  if (op.isPut) {
    // Re-send to every replica: servers treat a version they have seen
    // as a stale write and ack success without re-applying.
    PutRequestBody body;
    body.requestId = reqId;
    body.key = op.key;
    body.value = op.putValue;
    body.version = op.version;
    body.viewEpoch = viewEpoch_;
    op.outstanding += replicas.size();
    for (NodeId server : replicas) {
      ByteWriter w;
      const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
      body.writeTo(w);
      const uint64_t msgId =
          ctx_->send(sim::Message{id_, server, kPutRequest, w.take()});
      if (trace_) trace_->onSend(id_, msgId, ts);
    }
  } else {
    // Ask a replica deeper in the preference list than any tried so far
    // (wrap to the head once the list is exhausted).
    const NodeId server = replicas[op.replicasAsked % replicas.size()];
    ++op.replicasAsked;
    ++op.outstanding;
    GetRequestBody body;
    body.requestId = reqId;
    body.key = op.key;
    body.viewEpoch = viewEpoch_;
    ByteWriter w;
    const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
    body.writeTo(w);
    const uint64_t msgId =
        ctx_->send(sim::Message{id_, server, kGetRequest, w.take()});
    if (trace_) trace_->onSend(id_, msgId, ts);
  }
}

template <typename Body>
std::optional<Body> VoldemortClient::receive(const sim::Message& msg) {
  auto received = hlc::decodeMessage<Body>(msg.payload);
  if (!received) {
    ++malformedMessages_;
    return std::nullopt;
  }
  if (config_.faultInjection.skipReceiveTick) {
    // Injected bug: drop the causality update.
    if (trace_) trace_->onRecv(id_, msg.msgId, clock_.current());
  } else {
    // receive-event tick: causality via client
    const hlc::Timestamp ts = clock_.tick(received->ts);
    if (trace_) trace_->onRecv(id_, msg.msgId, ts);
  }
  return std::move(received->body);
}

void VoldemortClient::onMessage(sim::Message&& msg) {
  if (msg.type == kPutResponse) {
    auto decoded = receive<PutResponseBody>(msg);
    if (!decoded) return;
    PutResponseBody& body = *decoded;
    if (body.view) adoptView(*body.view, body.viewEpoch);
    auto it = pending_.find(body.requestId);
    if (it == pending_.end()) return;
    PendingOp& op = it->second;
    if (op.outstanding > 0) --op.outstanding;
    // Dedup by server: with retry re-sends the same replica may ack the
    // put twice, and two acks from one server are still one durable copy.
    if (std::find(op.ackedFrom.begin(), op.ackedFrom.end(), msg.from) ==
        op.ackedFrom.end()) {
      op.ackedFrom.push_back(msg.from);
      if (!op.completed && op.ackedFrom.size() >= op.needed) {
        op.completed = true;
        completePut(body.requestId, op, /*ok=*/true);
      }
    }
    if (op.outstanding == 0 && (op.completed || op.retriesLeft == 0)) {
      pending_.erase(it);
    }
  } else if (msg.type == kGetResponse) {
    auto decoded = receive<GetResponseBody>(msg);
    if (!decoded) return;
    GetResponseBody& body = *decoded;
    if (body.view) adoptView(*body.view, body.viewEpoch);
    auto it = pending_.find(body.requestId);
    if (it == pending_.end()) return;
    PendingOp& op = it->second;
    --op.outstanding;
    // Keep the causally-latest version among the replies (read repair
    // would reconcile replicas; our callers only need the newest value).
    if (body.value &&
        (!op.bestValue ||
         body.version.compare(op.bestVersion) == Occurred::kAfter)) {
      op.bestValue = std::move(body.value);
      op.bestVersion = body.version;
    }
    if (!op.completed && --op.needed == 0) {
      op.completed = true;
      completeGet(body.requestId, op, /*ok=*/true);
    }
    if (op.outstanding == 0) pending_.erase(it);
  } else {
    ++malformedMessages_;  // a type this node does not serve
  }
}

void VoldemortClient::adoptView(const MembershipView& view, uint64_t epoch) {
  if (epoch <= viewEpoch_) return;
  auto members = view.routableMembers();
  if (members.empty()) return;
  ownRing_.emplace(std::move(members), config_.ringVirtualNodes);
  viewEpoch_ = epoch;
  ++viewRefreshes_;
}

void VoldemortClient::completePut(uint64_t /*reqId*/, PendingOp& op, bool ok) {
  ++opsCompleted_;
  if (op.putDone) {
    auto done = std::move(op.putDone);
    op.putDone = nullptr;
    done(ok, ctx_->now() - op.startedAt);
  }
}

void VoldemortClient::completeGet(uint64_t /*reqId*/, PendingOp& op, bool ok) {
  ++opsCompleted_;
  if (op.getDone) {
    auto done = std::move(op.getDone);
    op.getDone = nullptr;
    done(ok, ctx_->now() - op.startedAt, std::move(op.bestValue));
  }
}

}  // namespace retro::kv
