#include "runtime/udp_context.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace retro::runtime {
namespace {

/// Chunk budget per datagram: serialized message bodies larger than
/// this are fragmented.  Kept under the classic 1500-byte path MTU so
/// the same framing works off-loopback.
constexpr size_t kMaxChunkBytes = 1200;
/// Receiver-side dedup window per link (sequence numbers).
constexpr size_t kDedupWindow = 1024;
/// The live sequence span per link is bounded to half the dedup window.
constexpr size_t kSeqSpanLimit = kDedupWindow / 2;
/// At most this many unacked datagrams per link; excess traffic waits
/// in a per-link backlog.
constexpr size_t kMaxInFlightDatagrams = 256;
// The flight cap must sit inside the span limit or the backlog could
// admit a seq the span check should have held back.
static_assert(kMaxInFlightDatagrams <= kSeqSpanLimit);
/// Reassembly buffers with no progress for this long are dropped —
/// with retransmission below, staleness means the sender gave up or
/// died, and half a message must never be delivered.
constexpr TimeMicros kReassemblyStaleMicros = 2'000'000;
/// Acks riding on one data datagram: 16 seqs (128 bytes) keep a full
/// chunk plus its headers under the 1500-byte path MTU.
constexpr size_t kMaxPiggybackedAcks = 16;
/// Seqs per standalone ack datagram (about 1 KiB).
constexpr size_t kMaxAcksPerDatagram = 128;
/// Datagrams read per drain() call, so a flooded socket cannot starve
/// its node's timers and inbox.
constexpr size_t kMaxDatagramsPerDrain = 64;
/// The pacer sleeps at most this long, so stale reassembly buffers are
/// swept even on an idle link.
constexpr TimeMicros kMaxPacerSleepMicros = 50'000;

/// Per-transmission loss-roll key: varies across (from, to, seq,
/// attempt, kind) so a retransmission rerolls instead of being doomed
/// to the same fate as the transmission it replaces.
uint64_t transmissionKey(NodeId from, NodeId to, uint64_t seq,
                         uint32_t attempt, bool ack) {
  const uint64_t endpoints =
      (static_cast<uint64_t>(from) << 33) ^ (static_cast<uint64_t>(to) << 1) ^
      static_cast<uint64_t>(ack);
  return retryJitterKey(seq, endpoints, attempt);
}

}  // namespace

UdpContext::UdpContext(RealtimeContext& inner, UdpConfig config)
    : inner_(&inner),
      config_(config),
      ackDelayMicros_(config.retransmit.backoffBaseMicros / 8) {}

UdpContext::~UdpContext() { stop(); }

void UdpContext::registerNode(NodeId node, Handler handler) {
  inner_->registerNode(node, std::move(handler));
  std::lock_guard<std::mutex> lk(nodesMu_);
  // Post-start registration is a crash/restart: the socket, port and
  // link state all survive, only the inner handler was swapped above.
  if (started_.load(std::memory_order_acquire)) return;
  if (nodes_.count(node) != 0) return;

  auto n = std::make_unique<UdpNode>();
  n->id = node;
  n->rxBuf.resize(64 * 1024);
  n->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (n->fd < 0) throw std::runtime_error("UdpContext: socket() failed");
  // Generous kernel buffers: the hermetic suites burst hundreds of
  // datagrams at once, and every kernel drop costs a retransmit delay.
  int bufBytes = 1 << 20;
  ::setsockopt(n->fd, SOL_SOCKET, SO_RCVBUF, &bufBytes, sizeof(bufBytes));
  ::setsockopt(n->fd, SOL_SOCKET, SO_SNDBUF, &bufBytes, sizeof(bufBytes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned
  if (::bind(n->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(n->fd);
    throw std::runtime_error("UdpContext: bind() failed");
  }
  socklen_t addrLen = sizeof(addr);
  if (::getsockname(n->fd, reinterpret_cast<sockaddr*>(&addr), &addrLen) !=
      0) {
    ::close(n->fd);
    throw std::runtime_error("UdpContext: getsockname() failed");
  }
  n->port = ntohs(addr.sin_port);
  // Keep an explicit setPeerAddress() override if one was installed.
  peers_.try_emplace(node,
                     PeerAddr{htonl(INADDR_LOOPBACK), addr.sin_port});
  nodes_.emplace(node, std::move(n));
}

void UdpContext::setPeerAddress(NodeId node, const std::string& ipv4,
                                uint16_t port) {
  std::lock_guard<std::mutex> lk(nodesMu_);
  if (started_.load(std::memory_order_acquire)) {
    throw std::logic_error("UdpContext: setPeerAddress after start()");
  }
  PeerAddr addr;
  addr.port = htons(port);
  if (::inet_pton(AF_INET, ipv4.c_str(), &addr.ipv4) != 1) {
    throw std::invalid_argument("UdpContext: bad IPv4 address " + ipv4);
  }
  peers_[node] = addr;
}

uint16_t UdpContext::portOf(NodeId node) const {
  std::lock_guard<std::mutex> lk(nodesMu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second->port;
}

void UdpContext::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  for (auto& [id, node] : nodes_) {
    UdpNode* n = node.get();
    inner_->attachSocket(id, n->fd, [this, n] { drain(*n); });
  }
  pacer_ = std::thread([this] { pacerLoop(); });
}

void UdpContext::stop() {
  stop_->store(true, std::memory_order_release);
  {
    // The pacer checks stop_ under pacerMu_ before it waits.
    std::lock_guard<std::mutex> lk(pacerMu_);
  }
  pacerCv_.notify_all();
  if (pacer_.joinable()) pacer_.join();
  // Each detach waits for the node's worker to finish its pass.  Once
  // all have returned, every worker has seen stop_, so no callback
  // still sends on a socket, and none will poll or drain one again.
  for (auto& [id, node] : nodes_) inner_->detachSocket(id);
  for (auto& [id, node] : nodes_) {
    if (node->fd >= 0) {
      ::close(node->fd);
      node->fd = -1;
    }
  }
}

void UdpContext::muteReceiver(NodeId node, bool muted) {
  std::lock_guard<std::mutex> lk(nodesMu_);
  auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    it->second->muted.store(muted, std::memory_order_release);
  }
}

LinkHealth UdpContext::linkHealth(NodeId node, NodeId peer) const {
  std::lock_guard<std::mutex> lk(nodesMu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return {};
  std::lock_guard<std::mutex> nodeLk(it->second->mu);
  auto lit = it->second->links.find(peer);
  if (lit == it->second->links.end()) return {};
  return {lit->second.consecutiveExhaustions, lit->second.suspected};
}

size_t UdpContext::inFlight() const {
  std::lock_guard<std::mutex> lk(nodesMu_);
  size_t count = 0;
  for (const auto& [id, node] : nodes_) {
    std::lock_guard<std::mutex> nodeLk(node->mu);
    for (const auto& [peer, link] : node->links) {
      count += link.unacked.size() + link.backlog.size();
    }
  }
  return count;
}

size_t UdpContext::suspectedLinkCount() const {
  std::lock_guard<std::mutex> lk(nodesMu_);
  size_t count = 0;
  for (const auto& [id, node] : nodes_) {
    std::lock_guard<std::mutex> nodeLk(node->mu);
    for (const auto& [peer, link] : node->links) {
      if (link.suspected) ++count;
    }
  }
  return count;
}

uint64_t UdpContext::send(Message message) {
  if (message.msgId == 0) {
    message.msgId = nextMsgId_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t id = message.msgId;
  // Self-sends, pre-start traffic, and post-stop stragglers take the
  // in-process path: the wire adds nothing for them.
  if (message.from == message.to ||
      !started_.load(std::memory_order_acquire) ||
      stop_->load(std::memory_order_acquire)) {
    localFallbacks_.fetch_add(1, std::memory_order_relaxed);
    return inner_->send(std::move(message));
  }
  // nodes_/peers_ are immutable once started_; lock-free reads are safe.
  auto nit = nodes_.find(message.from);
  auto pit = peers_.find(message.to);
  if (nit == nodes_.end() || pit == peers_.end()) {
    // Unknown sender or destination: the inner transport owns the
    // semantics (it drops traffic to unregistered nodes and counts it).
    localFallbacks_.fetch_add(1, std::memory_order_relaxed);
    return inner_->send(std::move(message));
  }

  const NodeId from = message.from;
  const NodeId to = message.to;
  const std::string body = encodeMessageBody(message);
  const auto chunks = chunkBody(body, kMaxChunkBytes);
  if (chunks.size() > 1) {
    fragmentsSent_.fetch_add(chunks.size(), std::memory_order_relaxed);
  }

  UdpNode& node = *nit->second;
  TimeMicros earliest = kNever;
  {
    std::lock_guard<std::mutex> lk(node.mu);
    Link& link = linkLocked(node, to);
    const uint64_t fragUid = link.nextFragUid++;
    for (size_t i = 0; i < chunks.size(); ++i) {
      Datagram d;
      d.kind = DatagramKind::kData;
      d.from = from;
      d.to = to;
      d.seq = link.nextSeq++;
      d.fragUid = fragUid;
      d.fragIndex = static_cast<uint32_t>(i);
      d.fragCount = static_cast<uint32_t>(chunks.size());
      d.chunk.assign(chunks[i]);
      const bool admitted = link.backlog.empty() && admitLocked(link, d.seq);
      // Owed acks ride only on a datagram that leaves now: a backlogged
      // one could hold them past the peer's retransmit deadline.
      if (link.suspected || admitted) {
        takeOwedAcks(link, d.ackedSeqs, kMaxPiggybackedAcks);
        acksPiggybacked_.fetch_add(d.ackedSeqs.size(),
                                   std::memory_order_relaxed);
      }
      std::string bytes = encodeDatagram(d);
      if (link.suspected) {
        // Degraded mode: one shot on the wire, no retransmit state — a
        // dead peer must cost bounded work.  The protocol layers above
        // already turn the resulting silence into timeouts / kPartial.
        suspectSends_.fetch_add(1, std::memory_order_relaxed);
        transmit(node.fd, to, bytes,
                 transmissionKey(from, to, d.seq, 1, false));
      } else if (admitted) {
        earliest = std::min(
            earliest, launchLocked(node, link, to, d.seq, std::move(bytes)));
      } else {
        backlogged_.fetch_add(1, std::memory_order_relaxed);
        link.backlog.push_back(Backlogged{d.seq, std::move(bytes)});
      }
    }
  }
  armPacer(earliest);
  return id;
}

UdpContext::Link& UdpContext::linkLocked(UdpNode& node, NodeId peer) {
  auto it = node.links.find(peer);
  if (it == node.links.end()) {
    it = node.links
             .emplace(std::piecewise_construct, std::forward_as_tuple(peer),
                      std::forward_as_tuple(kDedupWindow,
                                            kReassemblyStaleMicros))
             .first;
  }
  return it->second;
}

bool UdpContext::admitLocked(const Link& link, uint64_t seq) const {
  if (link.unacked.size() >= kMaxInFlightDatagrams) return false;
  if (link.unacked.empty()) return true;
  // Bound the live sequence span to half the dedup window: a straggler
  // retransmission of the oldest unacked seq must still land inside the
  // receiver's window no matter how far newer traffic has advanced it.
  return seq - link.unacked.begin()->first < kSeqSpanLimit;
}

TimeMicros UdpContext::launchLocked(UdpNode& node, Link& link, NodeId peer,
                                    uint64_t seq, std::string bytes) {
  const TimeMicros now = inner_->now();
  Unacked entry;
  entry.bytes = std::move(bytes);
  entry.budget = RetryBudget(config_.retransmit, seq, peer, now);
  const uint32_t attempt = entry.budget.recordAttempt();
  transmit(node.fd, peer, entry.bytes,
           transmissionKey(node.id, peer, seq, attempt, false));
  entry.nextAt = now + entry.budget.nextDelay();
  const TimeMicros nextAt = entry.nextAt;
  link.unacked.emplace(seq, std::move(entry));
  return nextAt;
}

TimeMicros UdpContext::drainBacklogLocked(UdpNode& node, Link& link,
                                          NodeId peer) {
  TimeMicros earliest = kNever;
  while (!link.backlog.empty() && admitLocked(link, link.backlog.front().seq)) {
    Backlogged b = std::move(link.backlog.front());
    link.backlog.pop_front();
    earliest =
        std::min(earliest, launchLocked(node, link, peer, b.seq,
                                        std::move(b.bytes)));
  }
  return earliest;
}

bool UdpContext::transmit(int fd, NodeId to, const std::string& bytes,
                          uint64_t lossKey) {
  if (config_.datagramLossProbability > 0) {
    SplitMix64 sm(config_.lossSeed ^ (lossKey * 0x9e3779b97f4a7c15ULL));
    const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
    if (u < config_.datagramLossProbability) {
      lossInjected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  auto it = peers_.find(to);
  if (it == peers_.end()) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = it->second.ipv4;
  addr.sin_port = it->second.port;
  const ssize_t n =
      ::sendto(fd, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (n < 0) return false;
  datagramsSent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void UdpContext::takeOwedAcks(Link& link, std::vector<uint64_t>& out,
                              size_t max) {
  const size_t n = std::min(max, link.owedAcks.size());
  out.insert(out.end(), link.owedAcks.begin(), link.owedAcks.begin() + n);
  link.owedAcks.erase(link.owedAcks.begin(), link.owedAcks.begin() + n);
}

void UdpContext::noteAliveLocked(Link& link) {
  link.consecutiveExhaustions = 0;
  if (link.suspected) {
    link.suspected = false;
    healedEvents_.fetch_add(1, std::memory_order_relaxed);
  }
}

TimeMicros UdpContext::applyAcksLocked(UdpNode& node, Link& link, NodeId peer,
                                       const std::vector<uint64_t>& seqs) {
  for (uint64_t seq : seqs) link.unacked.erase(seq);
  return drainBacklogLocked(node, link, peer);
}

void UdpContext::handleAck(UdpNode& node, const Datagram& d) {
  acksReceived_.fetch_add(1, std::memory_order_relaxed);
  TimeMicros earliest = kNever;
  {
    std::lock_guard<std::mutex> lk(node.mu);
    Link& link = linkLocked(node, d.from);
    // Any receipt from the peer — data or ack — is a sign of life.
    noteAliveLocked(link);
    earliest = applyAcksLocked(node, link, d.from, d.ackedSeqs);
  }
  armPacer(earliest);
}

void UdpContext::handleData(UdpNode& node, const Datagram& d) {
  std::optional<Message> completed;
  TimeMicros earliest = kNever;
  bool armFlush = false;
  {
    std::lock_guard<std::mutex> lk(node.mu);
    Link& link = linkLocked(node, d.from);
    noteAliveLocked(link);
    if (!d.ackedSeqs.empty()) {
      earliest = applyAcksLocked(node, link, d.from, d.ackedSeqs);
    }
    if (link.dedup.accept(d.seq)) {
      completed = link.reassembler.feed(d, inner_->now());
    } else {
      dedupHits_.fetch_add(1, std::memory_order_relaxed);
    }
    // Ack every data datagram, duplicates included: a duplicate means the
    // original ack was lost, and only a fresh ack stops the retransmits.
    if (link.owedAcks.empty()) link.owedSince = inner_->now();
    if (link.owedAcks.empty() || link.owedAcks.back() != d.seq) {
      link.owedAcks.push_back(d.seq);
    }
    armFlush = !node.ackFlushArmed;
    node.ackFlushArmed = true;
  }
  // The ack waits for data going back to the peer, up to ackDelayMicros_;
  // delivery never waits for it.
  if (armFlush) armAckTimer(node, ackDelayMicros_);
  armPacer(earliest);
  if (completed) {
    messagesDelivered_.fetch_add(1, std::memory_order_relaxed);
    inner_->send(std::move(*completed));
  }
}

void UdpContext::flushAcks(UdpNode& node) {
  struct Ack {
    NodeId peer;
    std::string bytes;
    uint64_t lossKey;
  };
  std::vector<Ack> acks;
  TimeMicros nextDue = kNever;
  const TimeMicros now = inner_->now();
  {
    std::lock_guard<std::mutex> lk(node.mu);
    node.ackFlushArmed = false;
    for (auto& [peer, link] : node.links) {
      if (link.owedAcks.empty()) continue;
      if (now - link.owedSince < ackDelayMicros_) {
        // Data back to the peer may still carry these.
        nextDue = std::min(nextDue, link.owedSince + ackDelayMicros_);
        continue;
      }
      while (!link.owedAcks.empty()) {
        Datagram ack;
        ack.kind = DatagramKind::kAck;
        ack.from = node.id;
        ack.to = peer;
        takeOwedAcks(link, ack.ackedSeqs, kMaxAcksPerDatagram);
        // Every ack transmission draws its own loss roll.
        acks.push_back({peer, encodeDatagram(ack),
                        transmissionKey(node.id, peer, ++link.ackTransmissions,
                                        1, true)});
      }
    }
    node.ackFlushArmed = nextDue != kNever;
  }
  for (const Ack& a : acks) {
    if (transmit(node.fd, a.peer, a.bytes, a.lossKey)) {
      acksSent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (nextDue != kNever) armAckTimer(node, nextDue - now);
}

void UdpContext::armAckTimer(UdpNode& node, TimeMicros delay) {
  inner_->schedule(node.id, delay, [this, &node, stop = stop_] {
    // stop() sets the flag before it waits out each node's current pass,
    // so a timer that fires later sees it and never touches `this`.
    if (!stop->load(std::memory_order_acquire)) flushAcks(node);
  });
}

bool UdpContext::fromRegisteredSource(NodeId from, uint32_t ipv4,
                                      uint16_t port) const {
  auto it = peers_.find(from);
  return it != peers_.end() && it->second.ipv4 == ipv4 &&
         it->second.port == port;
}

void UdpContext::drain(UdpNode& node) {
  for (size_t i = 0; i < kMaxDatagramsPerDrain; ++i) {
    sockaddr_in src{};
    socklen_t srcLen = sizeof(src);
    const ssize_t n =
        ::recvfrom(node.fd, node.rxBuf.data(), node.rxBuf.size(), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&src), &srcLen);
    if (n < 0) return;
    datagramsReceived_.fetch_add(1, std::memory_order_relaxed);
    if (node.muted.load(std::memory_order_acquire)) {
      // Simulated NIC death: drop before the reliability layer looks.
      mutedDrops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto d = decodeDatagram(
        std::string_view(node.rxBuf.data(), static_cast<size_t>(n)));
    if (!d) {
      crcRejects_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (d->to != node.id) continue;  // misaddressed
    if (src.sin_family != AF_INET ||
        !fromRegisteredSource(d->from, src.sin_addr.s_addr, src.sin_port)) {
      // Not sent from `from`'s address: a spoof must neither deliver
      // nor settle anything.
      sourceRejects_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (d->kind == DatagramKind::kAck) {
      handleAck(node, *d);
    } else {
      handleData(node, *d);
    }
  }
}

void UdpContext::pacerLoop() {
  std::unique_lock<std::mutex> pacerLk(pacerMu_);
  while (!stop_->load(std::memory_order_acquire)) {
    // While scanning, any new deadline lowers kNever and is kept.
    pacerDeadline_.store(kNever, std::memory_order_release);
    pacerLk.unlock();
    const TimeMicros now = inner_->now();
    TimeMicros nextWake = now + kMaxPacerSleepMicros;
    for (auto& [id, nodePtr] : nodes_) {
      UdpNode& node = *nodePtr;
      std::lock_guard<std::mutex> lk(node.mu);
      for (auto& [peer, link] : node.links) {
        reassemblyDrops_.fetch_add(link.reassembler.sweep(now),
                                   std::memory_order_relaxed);
        bool erasedAny = false;
        for (auto it = link.unacked.begin(); it != link.unacked.end();) {
          Unacked& u = it->second;
          if (u.nextAt > now) {
            nextWake = std::min(nextWake, u.nextAt);
            ++it;
            continue;
          }
          if (u.budget.exhausted(now)) {
            // Budget spent with no ack: report, drop, and let the
            // health layer decide whether the peer looks dead.  The
            // message (or fragment) is gone at transport level — the
            // protocol retry above owns end-to-end recovery.
            exhaustions_.fetch_add(1, std::memory_order_relaxed);
            if (u.budget.deadlineExceeded(now)) {
              deadlineExceeded_.fetch_add(1, std::memory_order_relaxed);
            }
            it = link.unacked.erase(it);
            erasedAny = true;
            if (!link.suspected &&
                ++link.consecutiveExhaustions >=
                    config_.suspectAfterExhaustions) {
              link.suspected = true;
              suspectedEvents_.fetch_add(1, std::memory_order_relaxed);
              // The backlog drains single-shot: keeping queues bounded
              // matters more than delivery odds on a suspected link.
              for (const Backlogged& b : link.backlog) {
                suspectSends_.fetch_add(1, std::memory_order_relaxed);
                transmit(node.fd, peer, b.bytes,
                         transmissionKey(node.id, peer, b.seq, 1, false));
              }
              link.backlog.clear();
            }
            continue;
          }
          const uint32_t attempt = u.budget.recordAttempt();
          retransmits_.fetch_add(1, std::memory_order_relaxed);
          transmit(node.fd, peer, u.bytes,
                   transmissionKey(node.id, peer, it->first, attempt, false));
          u.nextAt = now + u.budget.nextDelay();
          nextWake = std::min(nextWake, u.nextAt);
          ++it;
        }
        if (erasedAny) {
          nextWake = std::min(nextWake, drainBacklogLocked(node, link, peer));
        }
      }
    }
    pacerLk.lock();
    if (nextWake < pacerDeadline_.load(std::memory_order_relaxed)) {
      pacerDeadline_.store(nextWake, std::memory_order_release);
    }
    for (;;) {
      if (stop_->load(std::memory_order_acquire)) return;
      const TimeMicros left =
          pacerDeadline_.load(std::memory_order_relaxed) - inner_->now();
      if (left <= 0) break;
      pacerCv_.wait_for(pacerLk, std::chrono::microseconds(left));
      pacerWakes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void UdpContext::armPacer(TimeMicros at) {
  if (at >= pacerDeadline_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lk(pacerMu_);
    if (at >= pacerDeadline_.load(std::memory_order_relaxed)) return;
    pacerDeadline_.store(at, std::memory_order_release);
  }
  pacerCv_.notify_one();
}

Counters UdpContext::counters() const {
  Counters c;
  c.add("udp.datagrams_sent", datagramsSent_.load());
  c.add("udp.datagrams_received", datagramsReceived_.load());
  c.add("udp.retransmits", retransmits_.load());
  c.add("udp.acks_sent", acksSent_.load());
  c.add("udp.acks_received", acksReceived_.load());
  c.add("udp.acks_piggybacked", acksPiggybacked_.load());
  c.add("udp.dedup_hits", dedupHits_.load());
  c.add("udp.crc_rejects", crcRejects_.load());
  c.add("udp.source_rejects", sourceRejects_.load());
  c.add("udp.reassembly_drops", reassemblyDrops_.load());
  c.add("udp.loss_injected", lossInjected_.load());
  c.add("udp.exhausted", exhaustions_.load());
  c.add("udp.suspected", suspectedEvents_.load());
  c.add("udp.healed", healedEvents_.load());
  c.add("udp.suspect_sends", suspectSends_.load());
  c.add("udp.backlogged", backlogged_.load());
  c.add("udp.fragments_sent", fragmentsSent_.load());
  c.add("udp.messages_delivered", messagesDelivered_.load());
  c.add("udp.local_fallbacks", localFallbacks_.load());
  c.add("udp.muted_drops", mutedDrops_.load());
  c.add("udp.pacer_wakes", pacerWakes_.load());
  c.add("retry.retransmits", retransmits_.load());
  c.add("retry.exhausted", exhaustions_.load());
  c.add("retry.deadline_exceeded", deadlineExceeded_.load());
  return c;
}

}  // namespace retro::runtime
