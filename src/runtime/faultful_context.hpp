// The realtime chaos plane: a fault-injecting interposer over any
// ExecutionContext.
//
// The simulator's sim::FaultInjector perturbs the virtual network from
// inside the event loop; real threads have no such seam — so this class
// *is* the seam.  It implements ExecutionContext by delegating to an
// inner context and intercepting send(), where it applies the same fault
// vocabulary the Scenario scripts speak: probabilistic drop, duplicate
// and reorder (bounded extra delay), blanket latency, and asymmetric
// per-node partitions.  Per-node thread pauses (GC-stall stand-ins) are
// injected by parking the victim's worker thread on a condition
// variable.  Clock skew and crash/restart are not message faults and
// stay outside: RealtimePhysicalClock::injectOffset and the server's
// crash()/restart() own those (testing/realtime_faults.hpp wires all of
// them to one Scenario script).
//
// Determinism: each message's fault rolls are a pure hash of
// (config.seed, msgId), so a given message's fate is reproducible given
// its id.  Under real threads the *assignment order* of ids is racy, so
// runs are statistically — not bit-exactly — reproducible; the sweep
// asserts invariants (cut consistency, honest degradation), never exact
// traces.
//
// Lifecycle: the interposer assigns message ids from its own counter and
// passes them through the inner context (which preserves nonzero ids),
// so trace correlation by msgId survives duplication and delay.  Call
// release() before stopping the inner context — it unparks every paused
// worker so stop() can join them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>

#include "common/random.hpp"
#include "runtime/execution_context.hpp"

namespace retro::runtime {

struct FaultPlaneConfig {
  uint64_t seed = 1;
  /// Baseline fault rates, active from construction (each settable at
  /// runtime by the fault script).
  double dropProbability = 0.0;
  double duplicateProbability = 0.0;
  double reorderProbability = 0.0;
  /// Extra delay drawn uniformly in [1, max] for reordered copies and
  /// duplicates (0 disables reordering even if the roll hits).
  TimeMicros reorderDelayMaxMicros = 0;
  /// Blanket one-way latency added to every delivery.
  TimeMicros extraLatencyMicros = 0;
};

class FaultfulContext final : public ExecutionContext {
 public:
  FaultfulContext(ExecutionContext& inner, FaultPlaneConfig config);
  ~FaultfulContext() override;

  FaultfulContext(const FaultfulContext&) = delete;
  FaultfulContext& operator=(const FaultfulContext&) = delete;

  // --- ExecutionContext (delegation + interception) ---
  TimeMicros now() const override { return inner_->now(); }
  void schedule(NodeId owner, TimeMicros delay,
                std::function<void()> fn) override {
    inner_->schedule(owner, delay, std::move(fn));
  }
  void scheduleDaemon(NodeId owner, TimeMicros delay,
                      std::function<void()> fn) override {
    inner_->scheduleDaemon(owner, delay, std::move(fn));
  }
  void registerNode(NodeId node, Handler handler) override;
  void disconnect(NodeId node) override { inner_->disconnect(node); }
  bool isConnected(NodeId node) const override {
    return inner_->isConnected(node);
  }
  uint64_t send(Message message) override;
  bool isRealtime() const override { return inner_->isRealtime(); }
  void dispose(std::shared_ptr<void> garbage) override {
    inner_->dispose(std::move(garbage));
  }

  // --- fault controls (thread-safe; scripts call them from timers) ---
  void setDropProbability(double p);
  void setDuplicateProbability(double p);
  void setReorderProbability(double p);
  void setExtraLatency(TimeMicros micros);

  /// Partition `node` off: both directions, outbound-only, or
  /// inbound-only (the asymmetric link failures that fool naive failure
  /// detectors).  heal() undoes every direction for the node.
  void isolate(NodeId node);
  void isolateOutbound(NodeId node);
  void isolateInbound(NodeId node);
  void heal(NodeId node);
  void healAll();

  /// Park `node`'s worker thread (a GC-pause / scheduler-stall stand-in):
  /// posts a closure that blocks on a condition variable, freezing
  /// message handling and timers for the node until resumeNode().
  /// Messages keep queueing in the node's inbox meanwhile.  Must not be
  /// called for a node that schedules from multiple worker threads you
  /// need live.  Pauses are COUNTED: overlapping pause windows from
  /// independent script clauses union — the node runs again only after
  /// every pause has been resumed.  resumeNode() on an un-paused node is
  /// a no-op.
  void pauseNode(NodeId node);
  void resumeNode(NodeId node);

  /// Unpark every paused worker and refuse future pauses.  MUST run
  /// before the inner context's stop()/destruction, or joins deadlock on
  /// parked workers.  Idempotent; the destructor calls it too.
  void release();

  // --- injected-fault accounting ---
  uint64_t dropsInjected() const { return dropsInjected_.load(); }
  uint64_t partitionDrops() const { return partitionDrops_.load(); }
  uint64_t duplicatesInjected() const { return duplicatesInjected_.load(); }
  uint64_t delaysInjected() const { return delaysInjected_.load(); }

 private:
  bool knownDestination(NodeId node) const;
  void deliver(Message message, TimeMicros delay);

  ExecutionContext* inner_;
  FaultPlaneConfig config_;

  mutable std::mutex mu_;  // fault state below
  double dropProbability_;
  double duplicateProbability_;
  double reorderProbability_;
  TimeMicros reorderDelayMax_;
  TimeMicros extraLatency_;
  std::set<NodeId> blockedOut_;
  std::set<NodeId> blockedIn_;
  std::set<NodeId> known_;  // registered nodes (safe schedule() targets)

  std::mutex pauseMu_;
  std::condition_variable pauseCv_;
  std::map<NodeId, int> pauseDepth_;  // counted: overlapping windows union
  bool released_ = false;

  std::atomic<uint64_t> nextMsgId_{1};
  std::atomic<uint64_t> dropsInjected_{0};
  std::atomic<uint64_t> partitionDrops_{0};
  std::atomic<uint64_t> duplicatesInjected_{0};
  std::atomic<uint64_t> delaysInjected_{0};
};

}  // namespace retro::runtime
