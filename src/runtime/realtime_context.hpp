// Thread-per-node realtime runtime: the second implementation of
// ExecutionContext, running the exact same node logic as the simulator
// but on real cores.
//
//   * Transport: one in-process MPSC channel per node.  Senders push
//     under the node's mutex; the node's worker drains the whole inbox
//     in one swap (batched drain — one lock round per batch, not per
//     message) and then runs handlers lock-free.
//   * Timers: a per-node min-heap serviced by the node's worker between
//     drains; waits are bounded by the next deadline.
//   * Waiting: an idle worker parks on its node's condition variable or,
//     when a socket is attached (attachSocket()), in ppoll() on the
//     socket and an eventfd.  A sender wakes a worker only when it is
//     parked, so a message to a running node costs no system call.  A
//     worker with a socket calls its drain function on its own thread at
//     every loop pass, so a datagram reaches its node with one thread
//     wake.  Socketless nodes keep the condition variable because a
//     ppoll() wake plus the read() that re-arms the eventfd cost
//     read-mostly about 4 % of its throughput (EXPERIMENTS.md).
//   * Time: microseconds on the host steady clock since construction.
//   * Thread model: exactly one worker thread per node, so node state
//     keeps the single-thread confinement the protocol code was written
//     under.  One more thread, the reclaimer, destroys what nodes
//     dispose() of, so a large free never stalls a node.
//
// Lifecycle: construct -> registerNode()/send() freely -> start() spawns
// workers -> ... -> stop() joins everything.  New-node registration
// happens strictly before any thread exists, so node setup needs no
// locking; messages sent before start() are delivered after it.
// After start(), registerNode() may be called again for an *existing*
// node only — crash/restart recovery swapping in the next incarnation's
// handler (the node map itself is immutable once threads exist; the
// handler swap is serialized on the node's mutex).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/execution_context.hpp"

namespace retro::runtime {

class RealtimeContext final : public ExecutionContext {
 public:
  /// Maximum messages taken per drain: bounds how long a node runs
  /// handlers before it re-checks its timers.
  static constexpr size_t kDrainBatchLimit = 128;

  RealtimeContext();
  ~RealtimeContext() override;

  RealtimeContext(const RealtimeContext&) = delete;
  RealtimeContext& operator=(const RealtimeContext&) = delete;

  // --- ExecutionContext ---
  TimeMicros now() const override;
  void schedule(NodeId owner, TimeMicros delay,
                std::function<void()> fn) override;
  void scheduleDaemon(NodeId owner, TimeMicros delay,
                      std::function<void()> fn) override;
  /// Before start(): create the node.  After start(): re-register an
  /// existing node (crash/restart) — replaces its handler, reconnects
  /// it, and discards messages queued at the dead incarnation.
  void registerNode(NodeId node, Handler handler) override;
  void disconnect(NodeId node) override;
  bool isConnected(NodeId node) const override;
  uint64_t send(Message message) override;
  bool isRealtime() const override { return true; }
  /// Queues `garbage` for the reclaimer thread while the workers run;
  /// before start() and after stop() it is destroyed inline.
  void dispose(std::shared_ptr<void> garbage) override;

  // --- sockets ---

  /// Have `node`'s worker wait on `fd` as well as its inbox and timers,
  /// and call `drain` on the worker's own thread at every loop pass and
  /// whenever `fd` turns readable.  `drain` must not block: it reads
  /// what is queued (non-blocking) and returns.  One socket per node;
  /// valid before or after start().
  void attachSocket(NodeId node, int fd, std::function<void()> drain);
  /// Undo attachSocket().  On return `node`'s worker neither polls the
  /// socket nor runs its drain, and never will again, so the caller may
  /// close it.  Waits for a running worker to finish its current pass;
  /// must not be called from a worker thread.  No-op without a socket.
  void detachSocket(NodeId node);

  // --- realtime lifecycle ---

  /// Spawn every node's worker.  Must be called exactly once; nodes
  /// registered earlier begin draining immediately.
  void start();
  bool started() const { return started_; }

  /// Signal every worker, cancel outstanding timers, join all threads.
  /// Everything disposed of is destroyed before it returns.
  /// Idempotent; runs from the destructor if not called explicitly.
  /// After stop() returns, all node state is safely readable from the
  /// caller's thread (joins establish the happens-before edge).
  void stop();

  // --- wire statistics (atomics; exact after stop()) ---
  uint64_t messagesSent() const { return messagesSent_.load(); }
  uint64_t messagesDelivered() const { return messagesDelivered_.load(); }
  uint64_t messagesDropped() const { return messagesDropped_.load(); }
  uint64_t bytesSent() const { return bytesSent_.load(); }
  /// Batched-drain accounting: how many drains it took to deliver
  /// messagesDelivered() messages (ratio > 1 means batching is real).
  uint64_t drains() const { return drains_.load(); }
  uint64_t maxDrainBatch() const { return maxDrainBatch_.load(); }

 private:
  struct Timer {
    TimeMicros when = 0;
    uint64_t seq = 0;  // FIFO tie-break among same-deadline timers
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  struct Node {
    Node() = default;
    ~Node();
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    mutable std::mutex mu;
    std::deque<Message> inbox;
    std::vector<Timer> timers;  // min-heap via std::push_heap/greater
    Handler handler;
    bool connected = true;
    uint64_t timerSeq = 0;
    std::thread thread;
    /// Where a socketless worker parks.
    std::condition_variable cv;
    /// Written to wake a worker parked in ppoll(); read by it to re-arm.
    /// Created by the first attachSocket().
    int wakeFd = -1;
    /// True while the worker is parked (or about to park) with nothing
    /// to do.  Set under mu after the last empty check; the sender that
    /// flips it back wakes the worker, so a running one costs no syscall.
    std::atomic<bool> parked{false};
    // Socket attachment, guarded by mu.  `heldSocket` is the fd the
    // worker may poll and drain until its next locked section; a detach
    // waits on `released` until it no longer names the detached fd.
    int socketFd = -1;
    int heldSocket = -1;
    std::function<void()> drain;
    std::condition_variable released;
  };

  /// How a sender must wake a worker, decided under its node's mutex.
  enum class Wake { kNone, kCondvar, kEventfd };

  Node* find(NodeId node);
  const Node* find(NodeId node) const;
  /// Flip `node.parked` off and say how to wake the worker (kNone if it
  /// runs).  Called under node.mu after queueing work.
  static Wake claimWake(Node& node) {
    if (!node.parked.exchange(false, std::memory_order_relaxed)) {
      return Wake::kNone;
    }
    return node.heldSocket >= 0 ? Wake::kEventfd : Wake::kCondvar;
  }
  /// Deliver what claimWake() asked for; called after unlocking.
  static void wake(Node& node, Wake how);
  /// Park in ppoll() until the eventfd or the held socket turns readable
  /// or the timeout (microseconds, < 0 = none) passes; true if the
  /// socket is readable.
  static bool park(Node& node, int socket, TimeMicros timeoutMicros);
  void workerLoop(Node& node);
  void reclaimLoop();

  std::chrono::steady_clock::time_point base_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  bool joined_ = false;

  std::mutex reclaimMu_;
  std::condition_variable reclaimCv_;
  std::vector<std::shared_ptr<void>> garbage_;  // guarded by reclaimMu_
  bool reclaiming_ = false;                      // guarded by reclaimMu_
  std::thread reclaimer_;

  std::atomic<uint64_t> nextMsgId_{1};
  std::atomic<uint64_t> messagesSent_{0};
  std::atomic<uint64_t> messagesDelivered_{0};
  std::atomic<uint64_t> messagesDropped_{0};
  std::atomic<uint64_t> bytesSent_{0};
  std::atomic<uint64_t> drains_{0};
  std::atomic<uint64_t> maxDrainBatch_{0};
};

}  // namespace retro::runtime
