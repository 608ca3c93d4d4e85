// Real-networking transport: the third ExecutionContext implementation,
// carrying Message traffic over genuine UDP sockets (loopback for the
// hermetic suites; bindable addresses for multi-process deployments)
// behind the same seam the simulator and the in-process channel
// transport plug into.
//
// Layering: UdpContext DECORATES a RealtimeContext.  Timers, node
// registration, worker threads and final in-process delivery stay the
// inner context's job; UdpContext owns only the wire.  send()
// serializes the message into CRC32C-framed datagrams
// (runtime/datagram.hpp) and pushes them through the kernel with
// sendto().  Each node's socket is attached to its worker
// (RealtimeContext::attachSocket), which parks in ppoll() on it and
// drains it on its own thread: the drain decodes, checks the source
// address, deduplicates, reassembles and hands completed messages to
// inner_->send() — onto the inbox the same worker empties next.  A hop
// therefore wakes one thread, the receiver's.  The chaos interposer
// (FaultfulContext) stacks ON TOP of this context, so fault scripts
// perturb traffic before it ever reaches the wire, and the kernel's own
// losses are handled below it.
//
// Reliability layer (what makes every existing protocol survive genuine
// kernel-level loss):
//   * per-link (from->to) sequence numbers with a sliding dedup window
//     on the receiver — retransmitted duplicates are invisible;
//   * acks ride on data: a data datagram carries the seqs its sender
//     owes the peer.  A seq no data datagram carries within
//     backoffBaseMicros / 8 goes out in one coalesced ack datagram per
//     peer, sent from a node timer — well inside the first retransmit;
//   * retransmit driven by the shared RetryPolicy: capped exponential
//     backoff with deterministic jitter, an attempt budget AND a total
//     deadline per datagram (RetryBudget) — exhaustion is reported
//     through counters and peer-health suspicion, never looped;
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
//     hang;
//   * a datagram whose source address is not the registered address of
//     its `from` node is dropped and counted (udp.source_rejects).
//
// Threads: one retransmit pacer for the whole context, spawned by
// start() and joined by stop().  It sleeps until the earliest
// retransmit deadline and is woken only when a send brings that
// deadline forward.
// Lifecycle: construct -> registerNode() all nodes (sockets bind here;
// the address registry is immutable once start() runs) -> start() ->
// ... -> stop().  stop() is safe before, after, or without the inner
// context's own stop(): it detaches every socket from its worker before
// closing it.
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
#include "runtime/realtime_context.hpp"
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
  /// dropped before sendto() with this probability, seeded and drawn
  /// per transmission: a retransmit or a resent ack rolls again, and
  /// acks riding on a data datagram share its roll.  The hermetic
  /// stand-in for a genuinely lossy network; 0 disables.
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
  UdpContext(RealtimeContext& inner, UdpConfig config);
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
  /// Attach every node's socket to its worker and spawn the retransmit
  /// pacer.  Call after every registerNode() and before (or right
  /// around) the inner context's start().  Idempotent.
  void start();
  /// Join the pacer, detach every socket from its worker and close it.
  /// Idempotent; the destructor calls it.  Safe relative to the inner
  /// context's stop() in either order; call it from outside the node
  /// threads.  Later sends take the in-process path.
  void stop();

  /// Pre-start address override for a peer that lives in another
  /// process: traffic to `node` goes to ip:port instead of a local
  /// socket.  (The loopback suites never need this; it is the
  /// multi-process seam.)
  void setPeerAddress(NodeId node, const std::string& ipv4, uint16_t port);
  /// The UDP port `node`'s socket is bound to (0 if unknown).
  uint16_t portOf(NodeId node) const;

  // --- test hooks ---
  /// Simulate NIC death: while muted, `node` discards every datagram it
  /// receives before the reliability layer sees it — no acks, no
  /// deliveries.  Senders see a silent peer (retransmit -> exhaustion
  /// -> suspicion).  Thread-safe, runtime-mutable.
  void muteReceiver(NodeId node, bool muted);

  /// Sender's health view of the link node -> peer.
  LinkHealth linkHealth(NodeId node, NodeId peer) const;
  size_t suspectedLinkCount() const;
  /// Datagrams sent but not yet acked or given up on, backlogged ones
  /// included, summed over every link.
  size_t inFlight() const;

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
  /// Standalone ack datagrams sent (acks riding on data not included).
  uint64_t acksSent() const { return acksSent_.load(); }
  uint64_t sourceRejects() const { return sourceRejects_.load(); }
  /// Times the retransmit pacer's thread woke, for any reason.
  uint64_t pacerWakes() const { return pacerWakes_.load(); }

  /// Snapshot every transport counter under the "udp.*" / "retry.*"
  /// names (the failure-artifact and bench reporting path).
  Counters counters() const;

 private:
  struct Unacked {
    std::string bytes;  ///< encoded frame, ready for sendto()
    RetryBudget budget;
    TimeMicros nextAt = 0;
  };

  struct Backlogged {
    uint64_t seq = 0;
    std::string bytes;
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
    /// Standalone acks sent to the peer: keys each one's loss roll.
    uint64_t ackTransmissions = 0;
    // inbound (peer -> owner)
    DedupWindow dedup;
    Reassembler reassembler;
    /// Received seqs not yet acked to the peer, oldest first, and when
    /// the oldest of them arrived.
    std::vector<uint64_t> owedAcks;
    TimeMicros owedSince = 0;

    Link(size_t window, TimeMicros staleMicros)
        : dedup(window), reassembler(staleMicros) {}
  };

  struct UdpNode {
    NodeId id = 0;
    int fd = -1;
    uint16_t port = 0;
    mutable std::mutex mu;  ///< guards links and ackFlushArmed
    std::map<NodeId, Link> links;
    /// A flushAcks() timer is pending on the node's thread.
    bool ackFlushArmed = false;
    std::atomic<bool> muted{false};
    /// Receive buffer, used only by drain() on the node's own thread.
    std::vector<char> rxBuf;
  };

  struct PeerAddr {
    uint32_t ipv4 = 0;  ///< network byte order
    uint16_t port = 0;  ///< network byte order
  };

  static constexpr TimeMicros kNever = INT64_MAX;

  Link& linkLocked(UdpNode& node, NodeId peer);
  bool admitLocked(const Link& link, uint64_t seq) const;
  /// First transmission of an admitted datagram; returns its retransmit
  /// deadline.
  TimeMicros launchLocked(UdpNode& node, Link& link, NodeId peer,
                          uint64_t seq, std::string bytes);
  /// Launch what the flight window now admits; returns the earliest new
  /// retransmit deadline (kNever if none).
  TimeMicros drainBacklogLocked(UdpNode& node, Link& link, NodeId peer);
  /// Loss-roll + sendto(); returns false when the roll ate the packet.
  bool transmit(int fd, NodeId to, const std::string& bytes,
                uint64_t lossKey);
  /// Settle acked seqs; returns the earliest new retransmit deadline.
  TimeMicros applyAcksLocked(UdpNode& node, Link& link, NodeId peer,
                             const std::vector<uint64_t>& seqs);
  /// Move up to `max` owed acks of `link` into `out`.
  static void takeOwedAcks(Link& link, std::vector<uint64_t>& out,
                           size_t max);
  void handleAck(UdpNode& node, const Datagram& d);
  void handleData(UdpNode& node, const Datagram& d);
  void noteAliveLocked(Link& link);
  bool fromRegisteredSource(NodeId from, uint32_t ipv4, uint16_t port) const;
  /// The node worker's socket drain (RealtimeContext::attachSocket).
  void drain(UdpNode& node);
  /// Run flushAcks(node) on the node's thread after `delay`.
  void armAckTimer(UdpNode& node, TimeMicros delay);
  /// The ack timer: to every peer owed an ack for ackDelayMicros_, send
  /// one coalesced ack datagram; re-arm for the acks still young.
  void flushAcks(UdpNode& node);
  void pacerLoop();
  /// Make the pacer wake by `at`; wakes it only if it sleeps past `at`.
  void armPacer(TimeMicros at);

  RealtimeContext* inner_;
  UdpConfig config_;
  /// How long a received seq may wait for data to carry its ack.
  TimeMicros ackDelayMicros_;

  mutable std::mutex nodesMu_;  ///< guards map shape pre-start only
  std::map<NodeId, std::unique_ptr<UdpNode>> nodes_;
  std::map<NodeId, PeerAddr> peers_;  ///< immutable once started_
  std::atomic<bool> started_{false};
  /// Set by stop().  Shared with the ack timers, which sit on the inner
  /// context's timer heap and may fire after this object is gone.
  std::shared_ptr<std::atomic<bool>> stop_ =
      std::make_shared<std::atomic<bool>>(false);

  std::thread pacer_;
  std::mutex pacerMu_;
  std::condition_variable pacerCv_;
  /// When the pacer next wakes; kNever while it scans, so a deadline
  /// added meanwhile is kept.  Written under pacerMu_.
  std::atomic<TimeMicros> pacerDeadline_{kNever};

  std::atomic<uint64_t> nextMsgId_{1};
  std::atomic<uint64_t> datagramsSent_{0};
  std::atomic<uint64_t> datagramsReceived_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> acksSent_{0};
  std::atomic<uint64_t> acksReceived_{0};
  std::atomic<uint64_t> acksPiggybacked_{0};
  std::atomic<uint64_t> dedupHits_{0};
  std::atomic<uint64_t> crcRejects_{0};
  std::atomic<uint64_t> sourceRejects_{0};
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
  std::atomic<uint64_t> pacerWakes_{0};
};

}  // namespace retro::runtime
