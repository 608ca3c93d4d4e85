// Real-networking transport: the third ExecutionContext implementation,
// carrying Message traffic over genuine UDP sockets (loopback for the
// hermetic suites; bindable addresses for multi-process deployments)
// behind the same seam the simulator and the in-process channel
// transport plug into.
//
// Layering: UdpContext DECORATES an inner context (in practice the
// thread-per-node RealtimeContext).  Timers, node registration, worker
// threads and final in-process delivery stay the inner context's job;
// UdpContext owns only the wire.  send() serializes the message into
// CRC32C-framed datagrams (runtime/datagram.hpp), pushes them through
// the kernel with sendto(), and a per-node receiver thread decodes,
// deduplicates, reassembles and hands completed messages to
// inner_->send() — which enqueues them on the destination node's inbox
// exactly as an in-process send would.  The chaos interposer
// (FaultfulContext) stacks ON TOP of this context, so fault scripts
// perturb traffic before it ever reaches the wire, and the kernel's own
// losses are handled below it.
//
// Reliability layer (what makes every existing protocol survive genuine
// kernel-level loss):
//   * per-link (from->to) sequence numbers with a sliding dedup window
//     on the receiver — retransmitted duplicates are invisible;
//   * ack + retransmit driven by the shared RetryPolicy: capped
//     exponential backoff with deterministic jitter, an attempt budget
//     AND a total deadline per datagram (RetryBudget) — exhaustion is
//     reported through counters and peer-health suspicion, never looped;
//   * MTU-bounded fragmentation/reassembly for large payloads (transfer
//     chunks, view gossip, snapshot replies);
//   * flow control: per link at most kMaxInFlightDatagrams are unacked
//     and the live seq span is bounded to half the dedup window, so a
//     straggler retransmission can never be mistaken for a duplicate;
//   * per-peer health: consecutive retransmit exhaustions mark a link
//     suspected (new traffic degrades to single-shot sends so queues
//     stay bounded); any sign of life from the peer heals it.  A dead
//     peer therefore costs bounded work and surfaces as the timeout /
//     kPartial outcomes the protocol layers already speak — never a
//     hang.
//
// Threads: one receiver per node socket plus one retransmit pacer for
// the whole context, all spawned by start() and joined by stop().
// Lifecycle: construct -> registerNode() all nodes (sockets bind here;
// the address registry is immutable once start() runs) -> start() ->
// ... -> stop().  stop() is safe before, after, or without the inner
// context's own stop().
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

#include "common/metrics.hpp"
#include "runtime/datagram.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/retry.hpp"

namespace retro::runtime {

struct UdpConfig {
  /// Retransmit schedule per datagram (shared RetryPolicy semantics:
  /// attempt budget + capped backoff + deterministic jitter + total
  /// deadline).  Tuned for loopback RTTs; widen for real networks.
  RetryPolicy retransmit{/*maxAttempts=*/8,
                         /*backoffBaseMicros=*/2'000,
                         /*backoffCapMicros=*/60'000,
                         /*jitter=*/0.2,
                         /*totalDeadlineMicros=*/500'000};
  /// Consecutive retransmit exhaustions on a link before its peer is
  /// suspected (degraded single-shot sends until a sign of life).
  uint32_t suspectAfterExhaustions = 3;
  /// Injected kernel-path loss: every transmission (data and ack) is
  /// dropped before sendto() with this probability, seeded and
  /// per-transmission (retransmits reroll).  The hermetic stand-in for
  /// a genuinely lossy network; 0 disables.
  double datagramLossProbability = 0;
  uint64_t lossSeed = 1;
};

/// Health snapshot of one directional link (sender's view of a peer).
struct LinkHealth {
  uint32_t consecutiveExhaustions = 0;
  bool suspected = false;
};

class UdpContext final : public ExecutionContext {
 public:
  UdpContext(ExecutionContext& inner, UdpConfig config);
  ~UdpContext() override;

  UdpContext(const UdpContext&) = delete;
  UdpContext& operator=(const UdpContext&) = delete;

  // --- ExecutionContext (wire interception, everything else delegated) ---
  TimeMicros now() const override { return inner_->now(); }
  void schedule(NodeId owner, TimeMicros delay,
                std::function<void()> fn) override {
    inner_->schedule(owner, delay, std::move(fn));
  }
  void scheduleDaemon(NodeId owner, TimeMicros delay,
                      std::function<void()> fn) override {
    inner_->scheduleDaemon(owner, delay, std::move(fn));
  }
  /// First registration of a node binds its UDP socket (127.0.0.1, a
  /// kernel-assigned port) and records it in the address registry.
  /// Re-registration (crash/restart) only swaps the inner handler — the
  /// transport state (sequences, dedup windows) survives, as it would
  /// for a process that restarts behind a stable address.
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

  // --- lifecycle ---
  /// Spawn the per-node receiver threads and the retransmit pacer.
  /// Call after every registerNode() and before (or right around) the
  /// inner context's start().  Idempotent.
  void start();
  /// Join every transport thread and close the sockets.  Idempotent;
  /// the destructor calls it.  Safe relative to the inner context's
  /// stop() in either order (late deliveries into a stopped inner
  /// context are simply never drained).
  void stop();

  /// Pre-start address override for a peer that lives in another
  /// process: traffic to `node` goes to ip:port instead of a local
  /// socket.  (The loopback suites never need this; it is the
  /// multi-process seam.)
  void setPeerAddress(NodeId node, const std::string& ipv4, uint16_t port);
  /// The UDP port `node`'s socket is bound to (0 if unknown).
  uint16_t portOf(NodeId node) const;

  // --- test hooks ---
  /// Simulate NIC death: while muted, `node`'s receiver discards every
  /// datagram before the reliability layer sees it — no acks, no
  /// deliveries.  Senders see a silent peer (retransmit -> exhaustion
  /// -> suspicion).  Thread-safe, runtime-mutable.
  void muteReceiver(NodeId node, bool muted);

  /// Sender's health view of the link node -> peer.
  LinkHealth linkHealth(NodeId node, NodeId peer) const;
  size_t suspectedLinkCount() const;

  // --- wire statistics (atomics; exact after stop()) ---
  uint64_t datagramsSent() const { return datagramsSent_.load(); }
  uint64_t datagramsReceived() const { return datagramsReceived_.load(); }
  uint64_t retransmits() const { return retransmits_.load(); }
  uint64_t dedupHits() const { return dedupHits_.load(); }
  uint64_t crcRejects() const { return crcRejects_.load(); }
  uint64_t reassemblyDrops() const { return reassemblyDrops_.load(); }
  uint64_t exhaustions() const { return exhaustions_.load(); }
  uint64_t lossInjected() const { return lossInjected_.load(); }
  uint64_t messagesDelivered() const { return messagesDelivered_.load(); }
  uint64_t fragmentsSent() const { return fragmentsSent_.load(); }

  /// Snapshot every transport counter under the "udp.*" / "retry.*"
  /// names (the failure-artifact and bench reporting path).
  Counters counters() const;

 private:
  struct Unacked {
    std::string bytes;  ///< encoded frame, ready for sendto()
    NodeId peer = 0;
    RetryBudget budget;
    TimeMicros nextAt = 0;
  };

  struct Backlogged {
    uint64_t seq = 0;
    std::string bytes;
    NodeId peer = 0;
  };

  /// Directional transport state between an owning node and one peer.
  /// Guarded by the owning UdpNode's mutex.
  struct Link {
    // outbound (owner -> peer)
    uint64_t nextSeq = 1;
    uint64_t nextFragUid = 1;
    std::map<uint64_t, Unacked> unacked;  ///< seq -> in-flight datagram
    std::deque<Backlogged> backlog;       ///< waiting for a flight slot
    uint32_t consecutiveExhaustions = 0;
    bool suspected = false;
    // inbound (peer -> owner)
    DedupWindow dedup;
    Reassembler reassembler;

    Link(size_t window, TimeMicros staleMicros)
        : dedup(window), reassembler(staleMicros) {}
  };

  struct UdpNode {
    NodeId id = 0;
    int fd = -1;
    uint16_t port = 0;
    std::thread rx;
    mutable std::mutex mu;  ///< guards links
    std::map<NodeId, Link> links;
    std::atomic<bool> muted{false};
  };

  struct PeerAddr {
    uint32_t ipv4 = 0;  ///< network byte order
    uint16_t port = 0;  ///< network byte order
  };

  Link& linkLocked(UdpNode& node, NodeId peer);
  bool admitLocked(const Link& link, uint64_t seq) const;
  void enqueueDatagramLocked(UdpNode& node, Link& link, NodeId peer,
                             uint64_t seq, std::string bytes);
  void drainBacklogLocked(UdpNode& node, Link& link, NodeId peer);
  /// Loss-roll + sendto(); returns false when the roll ate the packet.
  bool transmit(int fd, NodeId to, const std::string& bytes,
                uint64_t lossKey);
  void sendAck(UdpNode& node, NodeId from, NodeId peer,
               std::vector<uint64_t> seqs);
  void handleAck(UdpNode& node, const Datagram& d);
  void handleData(UdpNode& node, const Datagram& d);
  void noteAliveLocked(Link& link);
  void rxLoop(NodeId id, UdpNode& node);
  void pacerLoop();
  void wakePacer();

  ExecutionContext* inner_;
  UdpConfig config_;

  mutable std::mutex nodesMu_;  ///< guards map shape pre-start only
  std::map<NodeId, std::unique_ptr<UdpNode>> nodes_;
  std::map<NodeId, PeerAddr> peers_;  ///< immutable once started_
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  bool joined_ = false;

  std::thread pacer_;
  std::mutex pacerMu_;
  std::condition_variable pacerCv_;
  bool pacerKick_ = false;

  std::atomic<uint64_t> nextMsgId_{1};
  std::atomic<uint64_t> datagramsSent_{0};
  std::atomic<uint64_t> datagramsReceived_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> acksSent_{0};
  std::atomic<uint64_t> acksReceived_{0};
  std::atomic<uint64_t> dedupHits_{0};
  std::atomic<uint64_t> crcRejects_{0};
  std::atomic<uint64_t> reassemblyDrops_{0};
  std::atomic<uint64_t> exhaustions_{0};
  std::atomic<uint64_t> deadlineExceeded_{0};
  std::atomic<uint64_t> lossInjected_{0};
  std::atomic<uint64_t> suspectedEvents_{0};
  std::atomic<uint64_t> healedEvents_{0};
  std::atomic<uint64_t> suspectSends_{0};
  std::atomic<uint64_t> backlogged_{0};
  std::atomic<uint64_t> fragmentsSent_{0};
  std::atomic<uint64_t> messagesDelivered_{0};
  std::atomic<uint64_t> localFallbacks_{0};
  std::atomic<uint64_t> mutedDrops_{0};
};

}  // namespace retro::runtime
