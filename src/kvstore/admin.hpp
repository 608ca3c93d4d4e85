// The snapshot initiator (§IV-A Fig. 7 step 3): an HLC-enabled
// administrative client that broadcasts snapshot requests for a specific
// HLC time, tracks per-node progress, and can restart a failed snapshot.
// Exposes the paper's evaluation entry point doSnapshot(HLCtime, store,
// snapshotDirectory, baseDirectory) — directory arguments are modeled as
// snapshot ids (empty base -> full snapshot; base + new id -> incremental;
// base reused -> rolling), matching §V's description of the modes.
//
// Also implements the §VII *deferred snapshots* optimization: nodes can
// be started in a staggered, off-phase manner (node i+k starts Δt after
// node i) to flatten the snapshot load.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "core/coordinator.hpp"
#include "hlc/clock.hpp"
#include "kvstore/messages.hpp"
#include "kvstore/ring.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/retry.hpp"
#include "sim/clock_model.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace retro::kv {

struct AdminConfig {
  /// Stagger between consecutive node starts (deferred snapshots, §VII);
  /// 0 broadcasts to everyone at once.
  TimeMicros deferStepMicros = 0;
  /// How many nodes may start simultaneously when deferring (the paper's
  /// "no more than k nodes fully overlap").
  size_t deferOverlap = 1;

  // --- fault-tolerant collection (retries, backoff, replica fallback) ---
  /// Per-request ack timeout. 0 disables the whole retry machinery
  /// (legacy fire-and-forget collection: a silent node leaves the
  /// session in-progress until markNodeUnavailable).
  TimeMicros requestTimeoutMicros = 0;
  /// Send attempts per target node (first transmission included).
  uint32_t maxAttemptsPerNode = 4;
  /// Capped exponential backoff between attempts: base * 2^(n-1).
  TimeMicros retryBackoffBaseMicros = 50'000;
  TimeMicros retryBackoffCapMicros = 800'000;
  /// Ring successors to try as replicas when a node cannot answer
  /// (crashed for good, or its window-log no longer reaches the target).
  size_t replicaFallbacks = 2;

  /// Overall deadline for a distributed temporal query; nodes that have
  /// not replied by then are recorded as timed out and the query settles
  /// as partial.
  TimeMicros queryTimeoutMicros = 2'000'000;
  /// Per-node reply deadline inside the overall query timeout: a silent
  /// node gets the query re-sent (plus the collection backoff) until
  /// queryMaxAttemptsPerNode transmissions.  Query evaluation is a pure
  /// read, so resends are idempotent.  0 = single send (legacy).
  TimeMicros queryRetryTimeoutMicros = 0;
  uint32_t queryMaxAttemptsPerNode = 3;

  /// Virtual nodes per member when re-deriving the ring from a gossiped
  /// membership view; must match the servers' value.
  size_t ringVirtualNodes = 64;
};

/// Outcome of a distributed temporal query (doQuery): merged per-step
/// results when every node answered, plus per-node failure reasons
/// otherwise (reusing the snapshot collection vocabulary — kLogTruncated
/// when a node's window floor slid past T1, kCorrupted for quarantine,
/// kTimedOut for silence).
struct QueryOutcome {
  uint64_t queryId = 0;
  Status status = Status::ok();  ///< overall verdict (OK = result valid)
  core::TemporalQueryResult result;
  std::map<NodeId, core::FailureReason> failures;
  /// Human-readable node refusal messages (e.g. the retained floor).
  std::map<NodeId, std::string> failureDetails;
  size_t responded = 0;  ///< nodes that sent any reply
};

class AdminClient {
 public:
  using SnapshotCallback = std::function<void(const core::SnapshotSession&)>;
  using QueryCallback = std::function<void(const QueryOutcome&)>;

  /// `ring` enables replica fallback along ring successors; without it
  /// fallbacks use the remaining servers in id order.
  AdminClient(NodeId id, runtime::ExecutionContext& ctx,
              hlc::PhysicalClock& clock, std::vector<NodeId> servers,
              AdminConfig config = {}, const Ring* ring = nullptr);

  /// Take a snapshot at HLC time `target` (defaults: the initiator's
  /// current HLC time = an instant snapshot).  `baseId` selects
  /// incremental/rolling modes per SnapshotKind.
  core::SnapshotId doSnapshot(hlc::Timestamp target, core::SnapshotKind kind,
                              std::optional<core::SnapshotId> baseId,
                              SnapshotCallback done);

  /// Instant snapshot at the initiator's current HLC time (§III-A).
  core::SnapshotId snapshotNow(SnapshotCallback done);

  /// Retrospective snapshot `deltaMillis` in the past: t = tc - Δ.
  core::SnapshotId snapshotPast(int64_t deltaMillis, SnapshotCallback done);

  /// Run a temporal query (OVER [t1,t2] STEP s ...) across the ring:
  /// parse locally for fail-fast, fan the text out to every server,
  /// collect per-step partial aggregates (only those travel, §III-A),
  /// merge, and deliver the outcome.  Returns the query id; the callback
  /// fires exactly once — when all nodes answered or the query timeout
  /// expires.  A malformed or non-temporal query fails synchronously.
  uint64_t doQuery(const std::string& text, QueryCallback done);

  /// Poll the progress of a snapshot on every participant.
  void checkProgress(core::SnapshotId id,
                     std::function<void(NodeId, ProgressReplyBody)> onReply);

  /// Restart a snapshot that ended partial or is stuck ("the initiator
  /// can also check the progress of snapshot at each node and restart
  /// the snapshot if needed", §IV-A): gives up on the old session and
  /// issues a fresh request with the same target/kind/base.  Returns the
  /// new snapshot id, or an error if the session is unknown.
  Result<core::SnapshotId> restartSnapshot(core::SnapshotId id,
                                           SnapshotCallback done);

  /// Declare a node dead for an in-flight session (e.g. after progress
  /// polling times out), so the session can settle as partial.
  void markNodeUnavailable(core::SnapshotId id, NodeId node);

  const core::SnapshotSession* findSession(core::SnapshotId id) const;
  hlc::Clock& clock() { return clock_; }

  /// Collection-protocol counters: "snapshot.retries",
  /// "snapshot.timeouts", "snapshot.target_down",
  /// "snapshot.fallback_attempts", "snapshot.replica_fallbacks",
  /// "snapshot.exhausted"; plus the shared retry-loop accounting
  /// "retry.attempts", "retry.exhausted".
  const Counters& counters() const { return counters_; }

  /// Attach a causality trace (fuzz harness); null disables recording.
  void setTrace(sim::CausalityTrace* trace) { trace_ = trace; }

  /// Membership view epoch the initiator currently coordinates under
  /// (0 until the first gossip digest arrives; every subsequent snapshot
  /// request is stamped with it so refusals are attributable to a view).
  uint64_t viewEpoch() const { return hasView_ ? view_.epoch() : 0; }
  /// Nodes a new snapshot would currently be collected from.
  const std::vector<NodeId>& participants() const { return servers_; }
  /// Received messages dropped undelivered: truncated, trailing bytes,
  /// a count the payload cannot hold, or a type this node does not serve.
  uint64_t malformedMessages() const { return malformedMessages_; }

 private:
  /// Per-(session, participant) retry state.  `target` is the node the
  /// request is currently aimed at: the participant itself, or — after
  /// its attempts are exhausted — successive replicas off the ring.
  struct Attempt {
    NodeId target = 0;
    /// Attempt budget for the current target (shared
    /// runtime::RetryBudget; jitter stays keyed on the participant, so
    /// the seeded timings predate the migration byte-for-byte).
    runtime::RetryBudget budget;
    uint32_t totalSends = 0;
    std::vector<NodeId> fallbackQueue;
    core::FailureReason pendingReason = core::FailureReason::kTimedOut;
    /// Bumped on every state transition; scheduled timeout/resend events
    /// carry the value they were armed with and ignore themselves if it
    /// moved on (classic generation-count timer cancellation).
    uint64_t generation = 0;
  };
  using AttemptKey = std::pair<core::SnapshotId, NodeId>;

  void onMessage(sim::Message&& msg);
  /// Decode-or-reject, then the receive-event tick: nullopt (counted in
  /// malformedMessages()) when the message does not decode as `Body`.
  template <typename Body>
  std::optional<Body> receive(const sim::Message& msg);
  /// Merge a gossiped membership view: re-derive the participant list
  /// (routable members) and the fallback ring for *future* sessions;
  /// in-flight sessions keep the participant set they started with.
  void adoptView(const MembershipView& view);
  const Ring* routingRing() const { return ownRing_ ? &*ownRing_ : ring_; }
  void sendRequest(NodeId server, const core::SnapshotRequest& request);
  bool retriesEnabled() const { return config_.requestTimeoutMicros > 0; }
  std::vector<NodeId> fallbackCandidates(NodeId participant) const;
  void beginAttempt(core::SnapshotId id, NodeId participant);
  void trySend(core::SnapshotId id, NodeId participant);
  void onAttemptTimeout(core::SnapshotId id, NodeId participant,
                        uint64_t generation);
  void scheduleNext(core::SnapshotId id, NodeId participant);
  void advanceToFallback(core::SnapshotId id, NodeId participant);
  void resolveFailure(core::SnapshotId id, NodeId participant);
  runtime::RetryPolicy collectionPolicy() const;
  void finishSession(core::SnapshotId id, core::SnapshotSession& session);
  void handleAck(const core::SnapshotAck& ack);

  struct QuerySession {
    core::SnapshotQuery query;
    std::string text;  ///< original query text, kept for resends
    std::map<NodeId, std::vector<core::TemporalStep>> partials;
    std::map<NodeId, core::FailureReason> failures;
    std::map<NodeId, std::string> failureDetails;
    std::set<NodeId> pending;
    /// Transmissions per node; scheduled resends carry the count they
    /// were armed with and ignore themselves if it moved on.
    std::map<NodeId, uint32_t> sends;
    QueryCallback done;
  };

  void sendQueryRequest(uint64_t queryId, NodeId server);
  void handleQueryReply(NodeId from, QueryReplyBody body);
  void finishQuery(uint64_t queryId, QuerySession& session);

  NodeId id_;
  runtime::ExecutionContext* ctx_;
  hlc::Clock clock_;
  std::vector<NodeId> servers_;
  AdminConfig config_;
  const Ring* ring_ = nullptr;
  /// Gossip-learned membership: the latest merged view and the ring
  /// re-derived from it (supersedes the injected static ring).
  MembershipView view_;
  bool hasView_ = false;
  std::optional<Ring> ownRing_;
  sim::CausalityTrace* trace_ = nullptr;
  core::SnapshotIdAllocator idAlloc_;
  Counters counters_;

  std::map<core::SnapshotId, core::SnapshotSession> sessions_;
  std::map<core::SnapshotId, SnapshotCallback> callbacks_;
  std::map<AttemptKey, Attempt> attempts_;
  std::function<void(NodeId, ProgressReplyBody)> progressHandler_;
  std::map<uint64_t, QuerySession> querySessions_;
  uint64_t nextQueryId_ = 1;
  uint64_t malformedMessages_ = 0;
};

}  // namespace retro::kv
