#include "kvstore/admin.hpp"

#include <algorithm>

#include "runtime/retry.hpp"

namespace retro::kv {

namespace {
/// Deterministic jitter fraction added on top of each backoff [0..1).
constexpr double kRetryJitter = 0.2;
}  // namespace

AdminClient::AdminClient(NodeId id, runtime::ExecutionContext& ctx,
                         hlc::PhysicalClock& clock, std::vector<NodeId> servers,
                         AdminConfig config, const Ring* ring)
    : id_(id),
      ctx_(&ctx),
      clock_(clock),
      servers_(std::move(servers)),
      config_(config),
      ring_(ring),
      idAlloc_(id) {
  ctx_->registerNode(id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
}

core::SnapshotId AdminClient::doSnapshot(hlc::Timestamp target,
                                         core::SnapshotKind kind,
                                         std::optional<core::SnapshotId> baseId,
                                         SnapshotCallback done) {
  core::SnapshotRequest request;
  request.id = idAlloc_.next();
  request.target = target;
  request.kind = kind;
  request.baseId = baseId;
  // Stamp the view the cut is collected under: a node that rebalanced
  // since (and refuses with kRebalancing) is attributable to the epoch.
  request.viewEpoch = viewEpoch();

  sessions_.emplace(request.id, core::SnapshotSession(request, servers_,
                                                      ctx_->now()));
  callbacks_.emplace(request.id, std::move(done));

  if (config_.deferStepMicros <= 0) {
    for (NodeId server : servers_) beginAttempt(request.id, server);
  } else {
    // Deferred snapshots (§VII): group i starts i*Δt after the first.
    const size_t k = config_.deferOverlap == 0 ? 1 : config_.deferOverlap;
    for (size_t i = 0; i < servers_.size(); ++i) {
      const TimeMicros delay =
          static_cast<TimeMicros>(i / k) * config_.deferStepMicros;
      const NodeId server = servers_[i];
      ctx_->schedule(id_, delay, [this, server, id = request.id] {
        beginAttempt(id, server);
      });
    }
  }
  return request.id;
}

core::SnapshotId AdminClient::snapshotNow(SnapshotCallback done) {
  const hlc::Timestamp now = clock_.tick();
  if (trace_) trace_->onLocal(id_, now);
  return doSnapshot(now, core::SnapshotKind::kFull, std::nullopt,
                    std::move(done));
}

core::SnapshotId AdminClient::snapshotPast(int64_t deltaMillis,
                                           SnapshotCallback done) {
  const hlc::Timestamp now = clock_.tick();
  if (trace_) trace_->onLocal(id_, now);
  return doSnapshot(hlc::fromPhysicalMillis(now.l - deltaMillis),
                    core::SnapshotKind::kFull, std::nullopt, std::move(done));
}

void AdminClient::sendRequest(NodeId server,
                              const core::SnapshotRequest& request) {
  ByteWriter w;
  const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
  SnapshotRequestBody body{request};
  body.writeTo(w);
  const uint64_t msgId =
      ctx_->send(sim::Message{id_, server, kSnapshotRequest, w.take()});
  if (trace_) trace_->onSend(id_, msgId, ts);
}

// ---------------------------------------------------------------------------
// Fault-tolerant collection: per-participant retries with capped
// exponential backoff, crash detection, and replica fallback.
// ---------------------------------------------------------------------------

std::vector<NodeId> AdminClient::fallbackCandidates(NodeId participant) const {
  if (config_.replicaFallbacks == 0) return {};
  std::vector<NodeId> out;
  const Ring* ring = routingRing();
  if (ring != nullptr && ring->contains(participant)) {
    // The ring successors hold the replicas of the key ranges this
    // participant is primary for (client-side replication writes each
    // item to the first N distinct clockwise nodes).
    for (NodeId n : ring->successorsOf(participant, config_.replicaFallbacks)) {
      if (std::find(servers_.begin(), servers_.end(), n) != servers_.end()) {
        out.push_back(n);
      }
    }
  } else {
    for (NodeId n : servers_) {
      if (out.size() >= config_.replicaFallbacks) break;
      if (n != participant) out.push_back(n);
    }
  }
  return out;
}

void AdminClient::beginAttempt(core::SnapshotId id, NodeId participant) {
  if (!retriesEnabled()) {
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second.isDone()) return;
    sendRequest(participant, it->second.request());
    return;
  }
  Attempt a;
  a.target = participant;
  a.budget =
      runtime::RetryBudget(collectionPolicy(), id, participant, ctx_->now());
  a.fallbackQueue = fallbackCandidates(participant);
  attempts_[{id, participant}] = std::move(a);
  trySend(id, participant);
}

void AdminClient::trySend(core::SnapshotId id, NodeId participant) {
  auto it = attempts_.find({id, participant});
  if (it == attempts_.end()) return;
  auto sess = sessions_.find(id);
  if (sess == sessions_.end() || sess->second.isDone()) return;
  Attempt& a = it->second;
  a.budget.recordAttempt();
  ++a.totalSends;
  counters_.add("retry.attempts");
  if (a.totalSends > 1) {
    sess->second.noteRetry(participant);
    counters_.add("snapshot.retries");
  }
  if (!ctx_->isConnected(a.target)) {
    // Connection refused — the target is down right now.  Remember the
    // crash (it becomes the participant's failure reason if nothing else
    // resolves it) but keep retrying: the node may restart and recover.
    if (a.target == participant) {
      a.pendingReason = core::FailureReason::kCrashed;
    }
    counters_.add("snapshot.target_down");
    scheduleNext(id, participant);
    return;
  }
  sendRequest(a.target, sess->second.request());
  const uint64_t gen = ++a.generation;
  ctx_->schedule(id_, config_.requestTimeoutMicros, [this, id, participant, gen] {
    onAttemptTimeout(id, participant, gen);
  });
}

void AdminClient::onAttemptTimeout(core::SnapshotId id, NodeId participant,
                                   uint64_t generation) {
  auto it = attempts_.find({id, participant});
  if (it == attempts_.end() || it->second.generation != generation) return;
  auto sess = sessions_.find(id);
  if (sess == sessions_.end() || sess->second.isDone()) return;
  if (it->second.target == participant) {
    it->second.pendingReason = core::FailureReason::kTimedOut;
  }
  counters_.add("snapshot.timeouts");
  scheduleNext(id, participant);
}

void AdminClient::scheduleNext(core::SnapshotId id, NodeId participant) {
  auto it = attempts_.find({id, participant});
  if (it == attempts_.end()) return;
  Attempt& a = it->second;
  if (!a.budget.exhausted(ctx_->now())) {
    // nextDelay() reproduces the historical backoffDelay(id, participant,
    // attempt) derivation exactly — the seeded fuzz timings depend on it.
    const TimeMicros delay = a.budget.nextDelay();
    const uint64_t gen = ++a.generation;
    ctx_->schedule(id_, delay, [this, id, participant, gen] {
      auto jt = attempts_.find({id, participant});
      if (jt == attempts_.end() || jt->second.generation != gen) return;
      trySend(id, participant);
    });
    return;
  }
  advanceToFallback(id, participant);
}

void AdminClient::advanceToFallback(core::SnapshotId id, NodeId participant) {
  auto it = attempts_.find({id, participant});
  if (it == attempts_.end()) return;
  auto sess = sessions_.find(id);
  if (sess == sessions_.end() || sess->second.isDone()) return;
  Attempt& a = it->second;
  // Only replicas that already completed their own local snapshot can
  // vouch for this participant's key range (the cached ack they re-send
  // covers the same target time); skip the rest.
  while (!a.fallbackQueue.empty()) {
    const NodeId candidate = a.fallbackQueue.front();
    a.fallbackQueue.erase(a.fallbackQueue.begin());
    const core::SnapshotSession::Participant* p =
        sess->second.findParticipant(candidate);
    if (p != nullptr && p->status &&
        *p->status == core::LocalSnapshotStatus::kComplete &&
        p->reason == core::FailureReason::kNone) {
      a.target = candidate;
      // Fresh attempt budget on the new target.  The jitter key
      // deliberately stays on the participant (historical derivation).
      a.budget.retarget(participant);
      ++a.generation;
      counters_.add("snapshot.fallback_attempts");
      trySend(id, participant);
      return;
    }
  }
  resolveFailure(id, participant);
}

void AdminClient::resolveFailure(core::SnapshotId id, NodeId participant) {
  auto it = attempts_.find({id, participant});
  if (it == attempts_.end()) return;
  const core::FailureReason reason = it->second.pendingReason;
  attempts_.erase(it);
  counters_.add("snapshot.exhausted");
  counters_.add("retry.exhausted");
  auto sess = sessions_.find(id);
  if (sess == sessions_.end()) return;
  if (sess->second.onNodeUnavailable(participant, ctx_->now(), reason)) {
    finishSession(id, sess->second);
  }
}

runtime::RetryPolicy AdminClient::collectionPolicy() const {
  runtime::RetryPolicy policy;
  policy.maxAttempts = config_.maxAttemptsPerNode;
  policy.backoffBaseMicros = config_.retryBackoffBaseMicros;
  policy.backoffCapMicros = config_.retryBackoffCapMicros;
  policy.jitter = kRetryJitter;
  return policy;
}

void AdminClient::finishSession(core::SnapshotId id,
                                core::SnapshotSession& session) {
  // Cancel all remaining per-participant retry state for the session.
  attempts_.erase(attempts_.lower_bound({id, 0}),
                  attempts_.lower_bound({id + 1, 0}));
  auto cb = callbacks_.find(id);
  if (cb != callbacks_.end()) {
    if (cb->second) cb->second(session);
    callbacks_.erase(cb);
  }
}

void AdminClient::handleAck(const core::SnapshotAck& ack) {
  auto it = sessions_.find(ack.id);
  if (it == sessions_.end() || it->second.isDone()) return;
  core::SnapshotSession& session = it->second;

  if (!retriesEnabled()) {
    if (session.onAck(ack, ctx_->now())) finishSession(ack.id, session);
    return;
  }

  // Direct answer from the participant itself (even if we had already
  // moved on to a fallback target — a recovered node's own completion is
  // always preferred).
  auto direct = attempts_.find({ack.id, ack.node});
  if (direct != attempts_.end()) {
    Attempt& a = direct->second;
    if (ack.status == core::LocalSnapshotStatus::kComplete) {
      attempts_.erase(direct);
      if (session.onAck(ack, ctx_->now())) finishSession(ack.id, session);
      return;
    }
    if (a.target == ack.node) {
      // The node answered but could not serve (log slid past the target,
      // quarantined corrupt records, or a generic failure): try its
      // replicas before settling.
      switch (ack.status) {
        case core::LocalSnapshotStatus::kOutOfReach:
          a.pendingReason = core::FailureReason::kLogTruncated;
          break;
        case core::LocalSnapshotStatus::kCorrupted:
          a.pendingReason = core::FailureReason::kCorrupted;
          break;
        case core::LocalSnapshotStatus::kRebalancing:
          a.pendingReason = core::FailureReason::kRebalancing;
          break;
        default:
          a.pendingReason = core::FailureReason::kFailed;
          break;
      }
      advanceToFallback(ack.id, ack.node);
      return;
    }
    // A late failure ack while a fallback is already in flight: let the
    // fallback run its course.
    return;
  }

  // Otherwise this may be a replica re-acking on behalf of a fallen
  // participant (the request we re-issued carried the same snapshot id,
  // so the replica answered from its completed-ack cache).
  for (auto at = attempts_.lower_bound({ack.id, 0});
       at != attempts_.end() && at->first.first == ack.id; ++at) {
    if (at->second.target != ack.node) continue;
    const NodeId participant = at->first.second;
    if (ack.status == core::LocalSnapshotStatus::kComplete) {
      attempts_.erase(at);
      counters_.add("snapshot.replica_fallbacks");
      // persistedBytes = 0: the replica's copy was already counted when
      // it acked for itself.
      if (session.resolveViaReplica(participant, ack.node, 0, ctx_->now())) {
        finishSession(ack.id, session);
      }
    } else {
      advanceToFallback(ack.id, participant);
    }
    return;
  }
  // Stale ack for an already-resolved participant: ignore.
}

// ---------------------------------------------------------------------------
// Distributed temporal queries
// ---------------------------------------------------------------------------

uint64_t AdminClient::doQuery(const std::string& text, QueryCallback done) {
  const uint64_t queryId = nextQueryId_++;
  // Fail fast on malformed input without burning a network round-trip;
  // the servers re-parse the text themselves (they trust no initiator).
  auto parsed = core::SnapshotQuery::parse(text);
  Status bad;
  if (!parsed.isOk()) {
    bad = parsed.status();
  } else if (!parsed.value().isTemporal()) {
    bad = Status(StatusCode::kInvalidArgument,
                 "query has no OVER clause; use execute() on a snapshot "
                 "for point-in-time queries");
  }
  if (!bad.isOk()) {
    QueryOutcome outcome;
    outcome.queryId = queryId;
    outcome.status = bad;
    if (done) done(outcome);
    return queryId;
  }

  QuerySession session;
  session.query = std::move(parsed.value());
  session.text = text;
  session.pending.insert(servers_.begin(), servers_.end());
  session.done = std::move(done);
  querySessions_.emplace(queryId, std::move(session));
  counters_.add("query.started");

  for (NodeId server : servers_) sendQueryRequest(queryId, server);

  ctx_->schedule(id_, config_.queryTimeoutMicros, [this, queryId] {
    auto it = querySessions_.find(queryId);
    if (it == querySessions_.end()) return;
    for (NodeId node : it->second.pending) {
      it->second.failures[node] = core::FailureReason::kTimedOut;
      counters_.add("query.timeouts");
    }
    it->second.pending.clear();
    finishQuery(queryId, it->second);
  });
  return queryId;
}

void AdminClient::sendQueryRequest(uint64_t queryId, NodeId server) {
  auto it = querySessions_.find(queryId);
  if (it == querySessions_.end()) return;
  QuerySession& session = it->second;
  if (session.pending.count(server) == 0) return;  // already answered
  const uint32_t sends = ++session.sends[server];
  if (sends > 1) counters_.add("query.retries");

  ByteWriter w;
  const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
  QueryRequestBody body{queryId, session.text};
  body.writeTo(w);
  const uint64_t msgId =
      ctx_->send(sim::Message{id_, server, kQueryRequest, w.take()});
  if (trace_) trace_->onSend(id_, msgId, ts);

  // Per-node resend inside the overall deadline: query evaluation is a
  // pure read, so a node that lost either leg simply re-answers; the
  // duplicate-reply guard in handleQueryReply absorbs double answers.
  if (config_.queryRetryTimeoutMicros <= 0 ||
      sends >= config_.queryMaxAttemptsPerNode) {
    return;
  }
  const TimeMicros delay =
      config_.queryRetryTimeoutMicros +
      runtime::cappedBackoffDelay(
          config_.retryBackoffBaseMicros, config_.retryBackoffCapMicros,
          kRetryJitter, sends,
          runtime::retryJitterKey(queryId, server, sends));
  ctx_->schedule(id_, delay, [this, queryId, server, sends] {
    auto jt = querySessions_.find(queryId);
    if (jt == querySessions_.end()) return;
    if (jt->second.pending.count(server) == 0) return;
    if (jt->second.sends[server] != sends) return;  // a newer send is armed
    sendQueryRequest(queryId, server);
  });
}

void AdminClient::handleQueryReply(NodeId from, QueryReplyBody body) {
  auto it = querySessions_.find(body.queryId);
  if (it == querySessions_.end()) return;  // late reply after timeout
  QuerySession& session = it->second;
  if (session.pending.erase(from) == 0) return;  // duplicate

  if (body.statusCode == StatusCode::kOk) {
    session.partials.emplace(from, std::move(body.steps));
  } else {
    // Map node refusals onto the snapshot-collection vocabulary.
    core::FailureReason reason = core::FailureReason::kFailed;
    if (body.statusCode == StatusCode::kOutOfRange) {
      reason = core::FailureReason::kLogTruncated;
    } else if (body.statusCode == StatusCode::kFailedPrecondition) {
      reason = core::FailureReason::kCorrupted;
    }
    session.failures[from] = reason;
    session.failureDetails[from] = std::move(body.reason);
    counters_.add("query.refusals");
  }
  if (session.pending.empty()) finishQuery(body.queryId, session);
}

void AdminClient::finishQuery(uint64_t queryId, QuerySession& session) {
  QueryOutcome outcome;
  outcome.queryId = queryId;
  outcome.responded = session.partials.size() + session.failureDetails.size();
  outcome.failures = std::move(session.failures);
  outcome.failureDetails = std::move(session.failureDetails);

  if (!outcome.failures.empty()) {
    // A consistent global answer needs every node's cut: one refusal
    // makes the whole query partial (the caller can narrow the interval
    // using the structured details and retry).
    outcome.status =
        Status(StatusCode::kUnavailable,
               std::to_string(outcome.failures.size()) + " of " +
                   std::to_string(servers_.size()) +
                   " nodes could not evaluate the query");
  } else {
    std::vector<std::vector<core::TemporalStep>> perNode;
    perNode.reserve(session.partials.size());
    for (auto& [node, steps] : session.partials) {
      perNode.push_back(std::move(steps));
    }
    auto combined = core::combinePartials(session.query, perNode);
    if (combined.isOk()) {
      outcome.result = std::move(combined.value());
      counters_.add("query.completed");
    } else {
      outcome.status = combined.status();
    }
  }

  const QueryCallback done = std::move(session.done);
  querySessions_.erase(queryId);
  if (done) done(outcome);
}

void AdminClient::checkProgress(
    core::SnapshotId id,
    std::function<void(NodeId, ProgressReplyBody)> onReply) {
  progressHandler_ = std::move(onReply);
  for (NodeId server : servers_) {
    ByteWriter w;
    const hlc::Timestamp ts = hlc::wrapHlc(clock_, w);
    ProgressRequestBody body{id};
    body.writeTo(w);
    const uint64_t msgId =
        ctx_->send(sim::Message{id_, server, kProgressRequest, w.take()});
    if (trace_) trace_->onSend(id_, msgId, ts);
  }
}

Result<core::SnapshotId> AdminClient::restartSnapshot(core::SnapshotId id,
                                                      SnapshotCallback done) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status(StatusCode::kNotFound,
                  "no snapshot session " + std::to_string(id));
  }
  const core::SnapshotRequest old = it->second.request();
  // Abandon the stale session: late acks for it will be ignored.
  callbacks_.erase(id);
  sessions_.erase(it);
  attempts_.erase(attempts_.lower_bound({id, 0}),
                  attempts_.lower_bound({id + 1, 0}));
  return doSnapshot(old.target, old.kind, old.baseId, std::move(done));
}

void AdminClient::markNodeUnavailable(core::SnapshotId id, NodeId node) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  attempts_.erase({id, node});
  if (it->second.onNodeUnavailable(node, ctx_->now())) {
    finishSession(id, it->second);
  }
}

const core::SnapshotSession* AdminClient::findSession(
    core::SnapshotId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

template <typename Body>
std::optional<Body> AdminClient::receive(const sim::Message& msg) {
  auto received = hlc::decodeMessage<Body>(msg.payload);
  if (!received) {
    ++malformedMessages_;
    return std::nullopt;
  }
  const hlc::Timestamp ts = clock_.tick(received->ts);
  if (trace_) trace_->onRecv(id_, msg.msgId, ts);
  return std::move(received->body);
}

void AdminClient::onMessage(sim::Message&& msg) {
  if (msg.type == kSnapshotAck) {
    if (auto body = receive<SnapshotAckBody>(msg)) handleAck(body->ack);
  } else if (msg.type == kProgressReply) {
    auto body = receive<ProgressReplyBody>(msg);
    if (body && progressHandler_) progressHandler_(msg.from, *body);
  } else if (msg.type == kQueryReply) {
    if (auto body = receive<QueryReplyBody>(msg)) {
      handleQueryReply(msg.from, std::move(*body));
    }
  } else if (msg.type == kGossip) {
    if (auto body = receive<GossipBody>(msg)) adoptView(body->view);
  } else {
    ++malformedMessages_;  // a type this node does not serve
  }
}

void AdminClient::adoptView(const MembershipView& view) {
  const uint64_t before = hasView_ ? view_.epoch() : 0;
  view_.merge(view, id_);
  hasView_ = true;
  if (view_.epoch() <= before) return;
  auto members = view_.routableMembers();
  if (members.empty()) return;
  counters_.add("membership.view_adopted");
  servers_ = members;
  ownRing_.emplace(std::move(members), config_.ringVirtualNodes);
}

}  // namespace retro::kv
