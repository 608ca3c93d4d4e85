// The execution-context seam between node logic and its runtime.
//
// Everything a node does to the outside world — read time, arm timers,
// send messages, register its receive handler — goes through this
// interface.  Two implementations exist:
//
//   * sim::SimContext — delegates to the deterministic discrete-event
//     scheduler (SimEnv) and simulated network; a run is a bit-identical
//     function of the seed, so the fuzz oracles keep their guarantees;
//   * runtime::RealtimeContext — thread-per-node execution over an
//     in-process MPSC channel transport with batched drains; time is the
//     host's steady clock.
//
// Thread-confinement contract (what makes the same single-threaded node
// code safe under real threads): every callback belonging to node N —
// its message handler, and any timer armed with owner == N — is invoked
// on N's worker thread.  A node that never shares state outside its
// callbacks is a correct realtime node with zero locking.
#pragma once

#include <functional>
#include <memory>

#include "common/types.hpp"
#include "runtime/message.hpp"

namespace retro::runtime {

class ExecutionContext {
 public:
  using Handler = std::function<void(Message&&)>;

  virtual ~ExecutionContext() = default;

  /// Current time in microseconds.  Virtual time under the simulator,
  /// steady-clock time since context creation under the realtime runtime.
  virtual TimeMicros now() const = 0;

  /// Run `fn` after `delay` microseconds on `owner`'s execution thread
  /// (the owner id is ignored by the simulator, which has one thread).
  virtual void schedule(NodeId owner, TimeMicros delay,
                        std::function<void()> fn) = 0;

  /// Like schedule(), but the event must not keep the runtime alive:
  /// periodic background work (gossip, checkpoint daemons) that dies
  /// with the run.  The simulator's run() returns once only daemon
  /// events remain; the realtime runtime cancels all timers at stop().
  virtual void scheduleDaemon(NodeId owner, TimeMicros delay,
                              std::function<void()> fn) = 0;

  /// Register the receive handler for a node.  Must happen before any
  /// message addressed to the node is delivered.
  virtual void registerNode(NodeId node, Handler handler) = 0;

  /// Remove a node (crash): pending and future deliveries are dropped.
  virtual void disconnect(NodeId node) = 0;
  virtual bool isConnected(NodeId node) const = 0;

  /// Send a message; returns the transport's id for it (recorded even if
  /// the message is later dropped, so causality bookkeeping is simple).
  virtual uint64_t send(Message message) = 0;

  /// True for runtimes where callbacks of different nodes run
  /// concurrently on real threads.  sim::Executor and sim::SimDisk charge
  /// modelled CPU and disk time only when this is false.
  virtual bool isRealtime() const = 0;

  /// Destroy `garbage`, which no node references any more.  The realtime
  /// runtime hands it to a reclaimer thread, so freeing a large structure
  /// never stalls a node thread; the simulator destroys it inline.
  virtual void dispose(std::shared_ptr<void> garbage) { garbage.reset(); }

  /// Convenience: run `fn` on `owner`'s thread as soon as possible.
  void post(NodeId owner, std::function<void()> fn) {
    schedule(owner, 0, std::move(fn));
  }
};

}  // namespace retro::runtime
