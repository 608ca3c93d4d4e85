// A Voldemort client (§IV-A, Fig. 7): routes by consistent hashing and
// is *directly responsible for replicating* each item to the preference
// list of its key — servers only communicate indirectly, through
// clients, and HLC causality propagates the same way ("HLC is still
// functional in this configuration, as the client contacts the nodes and
// passes the timestamps along with each message").
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hlc/clock.hpp"
#include "kvstore/messages.hpp"
#include "kvstore/ring.hpp"
#include "runtime/execution_context.hpp"
#include "sim/clock_model.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace retro::kv {

struct ClientConfig {
  size_t replicas = 2;        ///< preference-list length (paper Fig. 12: 2)
  size_t requiredWrites = 2;  ///< acks needed before a put completes
  size_t requiredReads = 1;   ///< responses needed before a get completes
  /// Abort an operation after this long (0 = never). Needed only for
  /// failure-injection experiments.
  TimeMicros opTimeoutMicros = 0;
  /// Bounded retries before a timed-out operation fails: a get is
  /// re-sent to a replica not asked yet (deeper in the preference list),
  /// a put is re-sent to all replicas (version vectors make the replay
  /// idempotent).  Only effective with opTimeoutMicros > 0.
  uint32_t maxRetries = 1;
  /// Capped exponential backoff (runtime/retry.hpp) inserted before each
  /// re-send: base * 2^(n-1) up to the cap, plus deterministic jitter.
  /// base == 0 re-sends immediately at the timeout (legacy behavior).
  TimeMicros retryBackoffBaseMicros = 0;
  TimeMicros retryBackoffCapMicros = 400'000;
  /// Virtual nodes per member when re-deriving the ring from a gossiped
  /// membership view; must match the servers' value.
  size_t ringVirtualNodes = 64;

  /// Deliberate protocol bugs for harness self-tests: the fuzz checker
  /// must catch each of these, never ship them enabled.
  struct FaultInjectionConfig {
    /// Strip the HLC header on receive without ticking the clock —
    /// breaks causality propagation through the client.
    bool skipReceiveTick = false;
  };
  FaultInjectionConfig faultInjection;
};

class VoldemortClient {
 public:
  using PutCallback = std::function<void(bool ok, TimeMicros latency)>;
  using GetCallback =
      std::function<void(bool ok, TimeMicros latency, OptValue value)>;

  VoldemortClient(NodeId id, runtime::ExecutionContext& ctx,
                  hlc::PhysicalClock& clock, const Ring& ring,
                  ClientConfig config);

  NodeId id() const { return id_; }
  hlc::Clock& clock() { return clock_; }

  void put(const Key& key, Value value, PutCallback done);
  void get(const Key& key, GetCallback done);

  /// Attach a causality trace (fuzz harness); null disables recording.
  void setTrace(sim::CausalityTrace* trace) { trace_ = trace; }

  uint64_t opsCompleted() const { return opsCompleted_; }
  uint64_t opsTimedOut() const { return opsTimedOut_; }
  /// Operations that were re-sent at least once after a timeout.
  uint64_t opsRetried() const { return opsRetried_; }

  /// Membership view epoch this client currently routes under (0 until
  /// the first stale-view redirect teaches it a newer view).
  uint64_t viewEpoch() const { return viewEpoch_; }
  /// Times the client rebuilt its ring from a piggybacked view.
  uint64_t viewRefreshes() const { return viewRefreshes_; }
  /// Received messages dropped undelivered: truncated, trailing bytes,
  /// a count the payload cannot hold, or a type this node does not serve.
  uint64_t malformedMessages() const { return malformedMessages_; }

 private:
  struct PendingOp {
    bool isPut = false;
    size_t needed = 0;
    size_t outstanding = 0;
    TimeMicros startedAt = 0;
    Key key;
    PutCallback putDone;
    GetCallback getDone;
    OptValue bestValue;
    VersionVector bestVersion;
    bool completed = false;
    uint32_t retriesLeft = 0;
    uint32_t retriesUsed = 0;  ///< backoff exponent + jitter key input
    /// Kept for put re-sends after a timeout.
    Value putValue;
    VersionVector version;
    /// Distinct servers that acked this put (a replayed put may be acked
    /// twice by the same server; it must not count twice).
    std::vector<NodeId> ackedFrom;
    /// How far down the preference list the get has asked.
    size_t replicasAsked = 0;
  };

  void onMessage(sim::Message&& msg);
  /// Decode-or-reject, then the receive-event tick: nullopt (counted in
  /// malformedMessages()) when the message does not decode as `Body`.
  template <typename Body>
  std::optional<Body> receive(const sim::Message& msg);
  /// Rebuild the routing ring from a view piggybacked on a response
  /// (the server's stale-view redirect); newer epochs only.
  void adoptView(const MembershipView& view, uint64_t epoch);
  const Ring* routingRing() const { return ownRing_ ? &*ownRing_ : ring_; }
  void completePut(uint64_t reqId, PendingOp& op, bool ok);
  void completeGet(uint64_t reqId, PendingOp& op, bool ok);
  void armTimeout(uint64_t reqId);
  void retryOp(uint64_t reqId, PendingOp& op);

  NodeId id_;
  runtime::ExecutionContext* ctx_;
  hlc::Clock clock_;
  const Ring* ring_;
  ClientConfig config_;
  sim::CausalityTrace* trace_ = nullptr;

  /// Ring re-derived from the latest gossiped view; the injected static
  /// ring serves until a server teaches this client a newer view.
  std::optional<Ring> ownRing_;
  uint64_t viewEpoch_ = 0;
  uint64_t viewRefreshes_ = 0;

  uint64_t nextRequestId_ = 1;
  std::unordered_map<uint64_t, PendingOp> pending_;
  std::unordered_map<Key, VersionVector> versionCache_;
  uint64_t opsCompleted_ = 0;
  uint64_t opsTimedOut_ = 0;
  uint64_t opsRetried_ = 0;
  uint64_t malformedMessages_ = 0;
};

}  // namespace retro::kv
