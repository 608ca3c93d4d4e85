// The UDP transport suite: codec-level tests (framing round-trips,
// truncation/corruption rejection, dedup-window wraparound, fragment
// reassembly, a seeded lossy-channel property test — all without
// sockets), RetryBudget semantics, and loopback integration tests for
// runtime::UdpContext itself (delivery, injected-loss recovery without
// exhaustion, fragmentation over real sockets, dead-peer suspicion and
// healing, acks riding on data, pacer wakes, stop order, spoofed
// sources, counters).  Hermetic: every socket binds 127.0.0.1 on a
// kernel-assigned port; all waits draw from RETRO_REALTIME_TIMEOUT_MS
// via runtime::waitForCondition.
#include "runtime/udp_context.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "runtime/datagram.hpp"
#include "runtime/deadline.hpp"
#include "runtime/realtime_context.hpp"
#include "runtime/retry.hpp"

namespace retro::runtime {
namespace {

// ---------------------------------------------------------------------------
// Codec: message bodies and datagram frames
// ---------------------------------------------------------------------------

TEST(DatagramCodec, MessageBodyRoundTripPreservesMsgId) {
  Message m{3, 9, 42, std::string("hello \0 world", 13), 0xDEADBEEFCAFEULL};
  const std::string body = encodeMessageBody(m);
  auto out = decodeMessageBody(3, 9, body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->from, 3u);
  EXPECT_EQ(out->to, 9u);
  EXPECT_EQ(out->type, 42u);
  EXPECT_EQ(out->payload, m.payload);
  EXPECT_EQ(out->msgId, m.msgId);
}

TEST(DatagramCodec, EmptyPayloadRoundTrips) {
  Message m{1, 2, 7, "", 5};
  auto out = decodeMessageBody(1, 2, encodeMessageBody(m));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, "");
  EXPECT_EQ(out->msgId, 5u);
}

TEST(DatagramCodec, DataDatagramRoundTrips) {
  Datagram d;
  d.kind = DatagramKind::kData;
  d.from = 11;
  d.to = 22;
  d.seq = 123456789;
  d.fragUid = 77;
  d.fragIndex = 2;
  d.fragCount = 5;
  d.chunk = std::string(300, 'q');
  auto out = decodeDatagram(encodeDatagram(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, DatagramKind::kData);
  EXPECT_EQ(out->from, 11u);
  EXPECT_EQ(out->to, 22u);
  EXPECT_EQ(out->seq, 123456789u);
  EXPECT_EQ(out->fragUid, 77u);
  EXPECT_EQ(out->fragIndex, 2u);
  EXPECT_EQ(out->fragCount, 5u);
  EXPECT_EQ(out->chunk, d.chunk);
}

TEST(DatagramCodec, AckDatagramRoundTrips) {
  Datagram a;
  a.kind = DatagramKind::kAck;
  a.from = 2;
  a.to = 1;
  a.ackedSeqs = {1, 9, 1ULL << 40};
  auto out = decodeDatagram(encodeDatagram(a));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, DatagramKind::kAck);
  EXPECT_EQ(out->ackedSeqs, a.ackedSeqs);
}

TEST(DatagramCodec, EveryTruncationIsRejected) {
  Datagram d;
  d.from = 1;
  d.to = 2;
  d.seq = 7;
  d.chunk = "some payload bytes";
  const std::string bytes = encodeDatagram(d);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decodeDatagram(std::string_view(bytes.data(), len)))
        << "truncation at " << len << " must not decode";
  }
}

TEST(DatagramCodec, EverySingleByteCorruptionIsRejected) {
  Datagram d;
  d.from = 1;
  d.to = 2;
  d.seq = 7;
  d.fragUid = 3;
  d.chunk = "payload under corruption test";
  const std::string bytes = encodeDatagram(d);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0x40;
    // A flip in the length prefix can make the frame claim more bytes
    // than were received (truncated), anywhere else it fails the CRC;
    // either way nothing decodes.
    EXPECT_FALSE(decodeDatagram(mutated)) << "flip at byte " << i;
  }
}

TEST(DatagramCodec, TrailingGarbageIsRejected) {
  Datagram d;
  d.from = 1;
  d.to = 2;
  d.chunk = "x";
  std::string bytes = encodeDatagram(d);
  bytes.push_back('\0');
  EXPECT_FALSE(decodeDatagram(bytes));
}

TEST(DatagramCodec, DataWithAcksRoundTripsAndRejectsEveryDamage) {
  Datagram d;
  d.from = 4;
  d.to = 5;
  d.seq = 17;
  d.fragUid = 2;
  d.ackedSeqs = {3, 4, 1ULL << 40};
  d.chunk = "reply riding with its acks";
  const std::string bytes = encodeDatagram(d);
  auto out = decodeDatagram(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, DatagramKind::kData);
  EXPECT_EQ(out->seq, 17u);
  EXPECT_EQ(out->ackedSeqs, d.ackedSeqs);
  EXPECT_EQ(out->chunk, d.chunk);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decodeDatagram(std::string_view(bytes.data(), len)))
        << "truncation at " << len << " must not decode";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0x40;
    EXPECT_FALSE(decodeDatagram(mutated)) << "flip at byte " << i;
  }
}

TEST(DatagramCodec, ChunkBodyCoversBodyExactly) {
  SplitMix64 rng(99);
  for (size_t size : {size_t{0}, size_t{1}, size_t{1200}, size_t{1201},
                      size_t{12 * 1200 + 3}}) {
    std::string body(size, '\0');
    for (auto& c : body) c = static_cast<char>(rng.next());
    const auto chunks = chunkBody(body, 1200);
    const size_t expected = size == 0 ? 1 : (size + 1199) / 1200;
    EXPECT_EQ(chunks.size(), expected);
    std::string joined;
    for (auto c : chunks) joined.append(c);
    EXPECT_EQ(joined, body);
  }
}

// ---------------------------------------------------------------------------
// DedupWindow
// ---------------------------------------------------------------------------

TEST(DedupWindow, AcceptsFreshRejectsDuplicate) {
  DedupWindow w(64);
  EXPECT_TRUE(w.accept(1));
  EXPECT_FALSE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_FALSE(w.accept(2));
  EXPECT_FALSE(w.accept(1));
  EXPECT_EQ(w.duplicates(), 3u);
}

TEST(DedupWindow, OutOfOrderWithinWindowAccepted) {
  DedupWindow w(64);
  EXPECT_TRUE(w.accept(10));
  EXPECT_TRUE(w.accept(5));   // older but in window, never seen
  EXPECT_TRUE(w.accept(40));
  EXPECT_TRUE(w.accept(11));
  EXPECT_FALSE(w.accept(5));
  EXPECT_FALSE(w.accept(40));
}

TEST(DedupWindow, BelowWindowIsDuplicate) {
  DedupWindow w(64);
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(100));
  // 100 - 64 = 36: anything <= 36 is below the window now.
  EXPECT_FALSE(w.accept(30));
  EXPECT_FALSE(w.accept(36));
  EXPECT_TRUE(w.accept(37));  // exactly inside
}

TEST(DedupWindow, WraparoundRecyclesSlotsCleanly) {
  // Sequential churn far past the ring size: every seq is fresh exactly
  // once, no stale bit ever reports a false duplicate.
  DedupWindow w(64);
  for (uint64_t seq = 1; seq <= 5'000; ++seq) {
    ASSERT_TRUE(w.accept(seq)) << "seq " << seq;
    ASSERT_FALSE(w.accept(seq));
  }
  EXPECT_EQ(w.duplicates(), 5'000u);
}

TEST(DedupWindow, LargeJumpWipesStaleState) {
  DedupWindow w(64);
  for (uint64_t seq = 1; seq <= 60; ++seq) ASSERT_TRUE(w.accept(seq));
  ASSERT_TRUE(w.accept(1'000'000));  // jump >> window
  // In-window seqs below the new high are fresh (slot recycling must
  // have cleared the bits their ring positions previously held).
  EXPECT_TRUE(w.accept(999'999));
  EXPECT_TRUE(w.accept(1'000'000 - 63));
  // And everything from before the jump is below-window duplicate.
  EXPECT_FALSE(w.accept(60));
}

// ---------------------------------------------------------------------------
// Reassembler
// ---------------------------------------------------------------------------

std::vector<Datagram> fragment(const Message& m, uint64_t fragUid,
                               uint64_t& seq, size_t maxChunk) {
  const std::string body = encodeMessageBody(m);
  const auto chunks = chunkBody(body, maxChunk);
  std::vector<Datagram> out;
  for (size_t i = 0; i < chunks.size(); ++i) {
    Datagram d;
    d.from = m.from;
    d.to = m.to;
    d.seq = seq++;
    d.fragUid = fragUid;
    d.fragIndex = static_cast<uint32_t>(i);
    d.fragCount = static_cast<uint32_t>(chunks.size());
    d.chunk.assign(chunks[i]);
    out.push_back(std::move(d));
  }
  return out;
}

TEST(Reassembler, ReassemblesOutOfOrderFragments) {
  Message m{1, 2, 9, std::string(5'000, 'z'), 1234};
  uint64_t seq = 1;
  auto frags = fragment(m, 1, seq, 700);
  ASSERT_GT(frags.size(), 3u);
  std::mt19937_64 shuffler(7);
  std::shuffle(frags.begin(), frags.end(), shuffler);

  Reassembler r;
  std::optional<Message> out;
  for (size_t i = 0; i < frags.size(); ++i) {
    auto got = r.feed(frags[i], /*now=*/0);
    if (i + 1 < frags.size()) {
      EXPECT_FALSE(got.has_value());
    } else {
      out = got;
    }
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, m.payload);
  EXPECT_EQ(out->msgId, m.msgId);
  EXPECT_EQ(r.pendingBuffers(), 0u);
}

TEST(Reassembler, DuplicateFragmentsAreIgnored) {
  Message m{1, 2, 9, std::string(2'000, 'a'), 1};
  uint64_t seq = 1;
  auto frags = fragment(m, 1, seq, 700);
  Reassembler r;
  // Feed the first fragment three times, then the rest once.
  EXPECT_FALSE(r.feed(frags[0], 0).has_value());
  EXPECT_FALSE(r.feed(frags[0], 0).has_value());
  EXPECT_FALSE(r.feed(frags[0], 0).has_value());
  std::optional<Message> out;
  for (size_t i = 1; i < frags.size(); ++i) out = r.feed(frags[i], 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, m.payload);
}

TEST(Reassembler, MismatchedFragCountDropsBuffer) {
  Message m{1, 2, 9, std::string(2'000, 'b'), 1};
  uint64_t seq = 1;
  auto frags = fragment(m, 1, seq, 700);
  Reassembler r;
  EXPECT_FALSE(r.feed(frags[0], 0).has_value());
  Datagram liar = frags[1];
  liar.fragCount += 1;  // disagrees with its buffered siblings
  EXPECT_FALSE(r.feed(liar, 0).has_value());
  EXPECT_EQ(r.dropsMalformed(), 1u);
  EXPECT_EQ(r.pendingBuffers(), 0u);
}

TEST(Reassembler, SweepDropsStaleBuffers) {
  Message m{1, 2, 9, std::string(2'000, 'c'), 1};
  uint64_t seq = 1;
  auto frags = fragment(m, 1, seq, 700);
  Reassembler r(/*staleAfterMicros=*/1'000);
  EXPECT_FALSE(r.feed(frags[0], /*now=*/0).has_value());
  EXPECT_EQ(r.sweep(/*now=*/500), 0u);  // still fresh
  EXPECT_EQ(r.sweep(/*now=*/1'500), 1u);
  EXPECT_EQ(r.pendingBuffers(), 0u);
  EXPECT_EQ(r.dropsStale(), 1u);
}

// ---------------------------------------------------------------------------
// Seeded lossy-channel property test (codec only, no sockets): messages
// fragmented into datagrams, each datagram duplicated 1..3x and
// reordered within a bounded horizon — the receive pipeline
// (DedupWindow + Reassembler) must deliver every message exactly once,
// byte-identical.
// ---------------------------------------------------------------------------

TEST(DatagramPipeline, DuplicatedReorderedChannelDeliversExactlyOnce) {
  Rng rng(7919 * 17);
  const size_t kMessages = 200;
  const size_t kWindow = 256;
  const size_t kMaxChunk = 300;

  std::map<uint64_t, std::string> sent;  // msgId -> payload
  std::vector<std::pair<uint64_t, Datagram>> schedule;  // (slot, datagram)
  uint64_t seq = 1;
  for (size_t i = 0; i < kMessages; ++i) {
    Message m{1, 2, 5, std::string(rng.nextBounded(4 * kMaxChunk), 'x'),
              i + 1};
    for (auto& c : m.payload) c = static_cast<char>(rng.next());
    sent[m.msgId] = m.payload;
    for (auto& d : fragment(m, i + 1, seq, kMaxChunk)) {
      // 1..3 copies, each jittered forward by < window/4 slots: the
      // sender's in-flight bound keeps real reordering inside the
      // window, so the model respects the same constraint.
      const uint64_t copies = 1 + rng.nextBounded(3);
      for (uint64_t c = 0; c < copies; ++c) {
        schedule.emplace_back(d.seq * 8 + rng.nextBounded(kWindow / 4), d);
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  DedupWindow dedup(kWindow);
  Reassembler reasm;
  std::map<uint64_t, std::string> delivered;
  size_t deliveries = 0;
  for (auto& [slot, d] : schedule) {
    if (!dedup.accept(d.seq)) continue;
    if (auto m = reasm.feed(d, 0)) {
      ++deliveries;
      delivered[m->msgId] = m->payload;
    }
  }
  EXPECT_EQ(deliveries, kMessages);  // exactly once each
  EXPECT_EQ(delivered, sent);        // byte-identical
  EXPECT_EQ(reasm.pendingBuffers(), 0u);
}

// ---------------------------------------------------------------------------
// RetryBudget
// ---------------------------------------------------------------------------

TEST(RetryBudget, AttemptBudgetExhausts) {
  RetryPolicy policy;
  policy.maxAttempts = 3;
  RetryBudget b(policy, /*op=*/7, /*peer=*/2, /*start=*/0);
  EXPECT_FALSE(b.exhausted(0));
  b.recordAttempt();
  b.recordAttempt();
  EXPECT_FALSE(b.exhausted(0));
  b.recordAttempt();
  EXPECT_TRUE(b.exhausted(0));
  EXPECT_FALSE(b.deadlineExceeded(1'000'000'000));  // no deadline set
}

TEST(RetryBudget, TotalDeadlineExhaustsWithAttemptsLeft) {
  RetryPolicy policy;
  policy.maxAttempts = 100;
  policy.totalDeadlineMicros = 10'000;
  RetryBudget b(policy, 7, 2, /*start=*/1'000);
  b.recordAttempt();
  EXPECT_FALSE(b.exhausted(5'000));
  EXPECT_TRUE(b.exhausted(11'000));
  EXPECT_TRUE(b.deadlineExceeded(11'000));
}

TEST(RetryBudget, RetargetResetsAttemptsButNotDeadline) {
  RetryPolicy policy;
  policy.maxAttempts = 2;
  policy.totalDeadlineMicros = 10'000;
  RetryBudget b(policy, 7, 2, /*start=*/0);
  b.recordAttempt();
  b.recordAttempt();
  EXPECT_TRUE(b.exhausted(1'000));
  b.retarget(/*peer=*/3);
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_FALSE(b.exhausted(1'000));   // fresh attempts on the new target
  EXPECT_TRUE(b.exhausted(11'000));   // deadline still counts from 0
}

TEST(RetryBudget, NextDelayMatchesBareDerivation) {
  // Byte-compatibility contract with the call sites RetryBudget
  // replaced: delay(n) = cappedBackoffDelay(..., n, jitterKey(op, peer, n)).
  RetryPolicy policy;
  policy.backoffBaseMicros = 50'000;
  policy.backoffCapMicros = 800'000;
  policy.jitter = 0.2;
  RetryBudget b(policy, /*op=*/41, /*peer=*/6, /*start=*/0);
  for (uint32_t n = 1; n <= 6; ++n) {
    b.recordAttempt();
    EXPECT_EQ(b.nextDelay(),
              cappedBackoffDelay(policy.backoffBaseMicros,
                                 policy.backoffCapMicros, policy.jitter, n,
                                 retryJitterKey(41, 6, n)));
  }
}

// ---------------------------------------------------------------------------
// UdpContext over real loopback sockets
// ---------------------------------------------------------------------------

struct Receiver {
  std::mutex mu;
  std::map<uint64_t, int> byId;  // msgId -> receipt count
  std::map<uint64_t, std::string> payloads;
  std::atomic<size_t> count{0};

  ExecutionContext::Handler handler() {
    return [this](Message&& m) {
      {
        std::lock_guard lk(mu);
        ++byId[m.msgId];
        payloads[m.msgId] = m.payload;
      }
      count.fetch_add(1);
    };
  }
};

TEST(UdpContext, DeliversOverLoopback) {
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  EXPECT_NE(udp.portOf(1), 0);
  EXPECT_NE(udp.portOf(2), 0);
  EXPECT_NE(udp.portOf(1), udp.portOf(2));
  udp.start();
  inner.start();
  const size_t kMessages = 300;
  for (size_t i = 0; i < kMessages; ++i) {
    const uint64_t id = udp.send(Message{1, 2, 7, "payload-" + std::to_string(i)});
    EXPECT_GT(id, 0u);
  }
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() >= kMessages; }));
  inner.stop();
  udp.stop();
  EXPECT_EQ(rx.count.load(), kMessages);
  EXPECT_GE(udp.datagramsSent(), kMessages);
  EXPECT_EQ(udp.messagesDelivered(), kMessages);
  for (auto& [id, n] : rx.byId) EXPECT_EQ(n, 1) << "msgId " << id;
}

TEST(UdpContext, SelfSendStaysInProcess) {
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  Receiver rx;
  udp.registerNode(1, rx.handler());
  udp.start();
  inner.start();
  udp.send(Message{1, 1, 7, "loop"});
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() == 1; }));
  inner.stop();
  udp.stop();
  EXPECT_EQ(udp.datagramsSent(), 0u);  // never touched the wire
}

TEST(UdpContext, InjectedLossIsRecoveredByRetransmission) {
  UdpConfig config;
  config.datagramLossProbability = 0.3;
  config.lossSeed = 42;
  // Enough attempts that a message lost 12 times in a row (p ~ 5e-7)
  // is not a plausible flake.
  config.retransmit.maxAttempts = 12;
  config.retransmit.backoffBaseMicros = 1'000;
  config.retransmit.backoffCapMicros = 20'000;
  config.retransmit.totalDeadlineMicros = 0;
  RealtimeContext inner;
  UdpContext udp(inner, config);
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();
  const size_t kMessages = 200;
  std::map<uint64_t, std::string> sent;
  for (size_t i = 0; i < kMessages; ++i) {
    Message m{1, 2, 9, "lossy-" + std::to_string(i)};
    const uint64_t id = udp.send(m);
    sent[id] = m.payload;
  }
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() >= kMessages; }));
  inner.stop();
  udp.stop();
  // Exactly once, byte-identical — duplicates from retransmit-after-
  // lost-ack must have been absorbed by the dedup window.
  EXPECT_EQ(rx.count.load(), kMessages);
  std::lock_guard lk(rx.mu);
  for (auto& [id, payload] : sent) {
    EXPECT_EQ(rx.byId[id], 1) << "msgId " << id;
    EXPECT_EQ(rx.payloads[id], payload);
  }
  EXPECT_GT(udp.lossInjected(), 0u);
  EXPECT_GT(udp.retransmits(), 0u);
}

TEST(UdpContext, FragmentsLargePayloadAcrossTheWire) {
  UdpConfig config;
  config.datagramLossProbability = 0.15;
  config.lossSeed = 7;
  config.retransmit.maxAttempts = 12;
  config.retransmit.backoffBaseMicros = 1'000;
  config.retransmit.backoffCapMicros = 20'000;
  config.retransmit.totalDeadlineMicros = 0;
  RealtimeContext inner;
  UdpContext udp(inner, config);
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();
  SplitMix64 rng(3);
  std::string big(100'000, '\0');
  for (auto& c : big) c = static_cast<char>(rng.next());
  const uint64_t id = udp.send(Message{1, 2, 9, big});
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() >= 1; }));
  inner.stop();
  udp.stop();
  EXPECT_GT(udp.fragmentsSent(), 10u);
  std::lock_guard lk(rx.mu);
  EXPECT_EQ(rx.payloads[id], big);
}

TEST(UdpContext, DeadPeerIsSuspectedThenHealsOnContact) {
  UdpConfig config;
  // Aggressive budget so suspicion fires fast.
  config.retransmit.maxAttempts = 3;
  config.retransmit.backoffBaseMicros = 500;
  config.retransmit.backoffCapMicros = 2'000;
  config.retransmit.totalDeadlineMicros = 50'000;
  config.suspectAfterExhaustions = 2;
  RealtimeContext inner;
  UdpContext udp(inner, config);
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();

  // NIC death on node 2: data keeps flowing out of node 1 but nothing
  // is ever acked.  Bounded retransmission, then suspicion — not a hang.
  udp.muteReceiver(2, true);
  for (int i = 0; i < 8; ++i) udp.send(Message{1, 2, 9, "into the void"});
  ASSERT_TRUE(waitForCondition([&] { return udp.linkHealth(1, 2).suspected; }));
  EXPECT_GE(udp.exhaustions(), config.suspectAfterExhaustions);
  EXPECT_EQ(udp.suspectedLinkCount(), 1u);
  EXPECT_EQ(rx.count.load(), 0u);

  // While suspected, traffic degrades to single shots (bounded work)...
  udp.send(Message{1, 2, 9, "still muted"});

  // ...and the first contact after the NIC heals restores the link.
  udp.muteReceiver(2, false);
  ASSERT_TRUE(waitForCondition([&] {
    if (udp.linkHealth(1, 2).suspected) {
      udp.send(Message{1, 2, 9, "probe"});
      return false;
    }
    return true;
  }));
  EXPECT_GE(udp.messagesDelivered(), 1u);
  EXPECT_GE(udp.counters().get("udp.healed"), 1u);
  inner.stop();
  udp.stop();
}

TEST(UdpContext, RegisterAfterStartSwapsHandlerKeepsTransportState) {
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  Receiver before;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, before.handler());
  const uint16_t port = udp.portOf(2);
  udp.start();
  inner.start();
  udp.send(Message{1, 2, 7, "first"});
  ASSERT_TRUE(waitForCondition([&] { return before.count.load() == 1; }));

  // Crash/restart: re-registering post-start swaps only the handler;
  // the socket (and thus the port) survives.
  Receiver after;
  udp.registerNode(2, after.handler());
  EXPECT_EQ(udp.portOf(2), port);
  udp.send(Message{1, 2, 7, "second"});
  ASSERT_TRUE(waitForCondition([&] { return after.count.load() == 1; }));
  EXPECT_EQ(before.count.load(), 1u);
  inner.stop();
  udp.stop();
}

TEST(UdpContext, CountersSnapshotMatchesAccessors) {
  UdpConfig config;
  config.datagramLossProbability = 0.2;
  config.retransmit.maxAttempts = 12;
  config.retransmit.backoffBaseMicros = 1'000;
  config.retransmit.totalDeadlineMicros = 0;
  RealtimeContext inner;
  UdpContext udp(inner, config);
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();
  for (int i = 0; i < 50; ++i) udp.send(Message{1, 2, 9, "count me"});
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() >= 50; }));
  inner.stop();
  udp.stop();
  const Counters c = udp.counters();
  EXPECT_EQ(c.get("udp.datagrams_sent"), udp.datagramsSent());
  EXPECT_EQ(c.get("udp.datagrams_received"), udp.datagramsReceived());
  EXPECT_EQ(c.get("udp.retransmits"), udp.retransmits());
  EXPECT_EQ(c.get("udp.dedup_hits"), udp.dedupHits());
  EXPECT_EQ(c.get("udp.loss_injected"), udp.lossInjected());
  EXPECT_EQ(c.get("udp.messages_delivered"), udp.messagesDelivered());
  EXPECT_EQ(c.get("retry.retransmits"), udp.retransmits());
  EXPECT_EQ(c.get("retry.exhausted"), udp.exhaustions());
  EXPECT_EQ(c.get("udp.crc_rejects"), 0u);
}

/// Sends `count` messages 1 -> 2 from node 1's own thread, 16 per pass
/// as a streaming node would, so the node drains its socket and settles
/// acks between batches.  Waits until each message arrived and nothing
/// is left in flight.
void streamOneWay(RealtimeContext& inner, UdpContext& udp, Receiver& rx,
                  size_t count) {
  constexpr size_t kPerPass = 16;
  std::atomic<bool> sent{false};
  auto sendFrom = std::make_shared<std::function<void(size_t)>>();
  *sendFrom = [&, count, weak = std::weak_ptr(sendFrom)](size_t first) {
    const size_t last = std::min(count, first + kPerPass);
    for (size_t i = first; i < last; ++i) {
      udp.send(Message{1, 2, 9, "stream-" + std::to_string(i)});
    }
    if (last == count) {
      sent.store(true);
    } else {
      inner.post(1, [self = weak.lock(), last] { (*self)(last); });
    }
  };
  inner.post(1, [sendFrom] { (*sendFrom)(0); });
  ASSERT_TRUE(waitForCondition([&] {
    return sent.load() && rx.count.load() >= count && udp.inFlight() == 0;
  }));
}

TEST(UdpContext, InjectedLossNeverExhaustsTheDefaultBudget) {
  // Every transmission draws its own loss roll, acks included: a seq
  // exhausts its 8 attempts only if all of them, or every ack of them,
  // is lost — never at 1-5 % loss.
  for (const double loss : {0.01, 0.05}) {
    SCOPED_TRACE("loss " + std::to_string(loss));
    UdpConfig config;
    config.datagramLossProbability = loss;
    config.lossSeed = 5;
    RealtimeContext inner;
    UdpContext udp(inner, config);
    Receiver rx;
    udp.registerNode(1, [](Message&&) {});
    udp.registerNode(2, rx.handler());
    udp.start();
    inner.start();
    const size_t kMessages = 2000;
    streamOneWay(inner, udp, rx, kMessages);
    inner.stop();
    udp.stop();
    EXPECT_GT(udp.lossInjected(), 0u);
    EXPECT_EQ(udp.exhaustions(), 0u);
    EXPECT_EQ(rx.count.load(), kMessages);
    std::lock_guard lk(rx.mu);
    EXPECT_EQ(rx.byId.size(), kMessages);
    for (auto& [id, n] : rx.byId) EXPECT_EQ(n, 1) << "msgId " << id;
  }
}

TEST(UdpContext, RequestReplyAcksRideOnData) {
  // Closed loop: node 1's handler sends the next request as each reply
  // lands, and node 2's handler replies to each request, so every ack
  // has data going its way within microseconds.
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  constexpr int kRoundTrips = 1000;
  std::atomic<int> replies{0};
  udp.registerNode(1, [&](Message&&) {
    if (replies.fetch_add(1) + 1 < kRoundTrips) {
      udp.send(Message{1, 2, 7, "request"});
    }
  });
  udp.registerNode(2, [&](Message&&) { udp.send(Message{2, 1, 8, "reply"}); });
  udp.start();
  inner.start();
  udp.send(Message{1, 2, 7, "request"});
  ASSERT_TRUE(waitForCondition(
      [&] { return replies.load() == kRoundTrips && udp.inFlight() == 0; }));
  inner.stop();
  udp.stop();
  const uint64_t data = udp.datagramsSent() - udp.acksSent();
  EXPECT_GE(data, 2u * kRoundTrips);
  EXPECT_LE(udp.acksSent() * 2, data);
}

TEST(UdpContext, OneWayStreamCoalescesAcksAndLetsThePacerSleep) {
  // No data flows back, so every ack goes out coalesced from node 2's
  // timer, before any retransmit; and the pacer wakes only when a send
  // brings its deadline forward, not once per send.  The base is
  // widened from the 2-ms default because receiving a full 256-datagram
  // window takes about 20 ms under a sanitizer, and a loaded host can
  // stall a thread too; the ack delay scales with it (base / 8).
  UdpConfig config;
  config.retransmit.backoffBaseMicros = 50'000;
  RealtimeContext inner;
  UdpContext udp(inner, config);
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();
  const size_t kMessages = 2000;
  streamOneWay(inner, udp, rx, kMessages);
  inner.stop();
  udp.stop();
  EXPECT_EQ(udp.retransmits(), 0u);
  EXPECT_EQ(udp.dedupHits(), 0u);
  EXPECT_EQ(udp.messagesDelivered(), kMessages);
  const uint64_t data = udp.datagramsSent() - udp.acksSent();
  EXPECT_EQ(data, kMessages);
  // Coalesced: one ack datagram covers many seqs.
  EXPECT_LE(udp.acksSent() * 4, data);
  EXPECT_LE(udp.pacerWakes() * 10, data);
  EXPECT_EQ(udp.counters().get("udp.pacer_wakes"), udp.pacerWakes());
}

TEST(UdpContext, StopBeforeInnerStopUnderTraffic) {
  // Three nodes pass tokens around from their handlers.  Stopping the
  // wire first must close no socket a worker still polls; the tokens
  // then keep moving in-process until the workers stop.
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  std::atomic<uint64_t> hops{0};
  for (NodeId id = 1; id <= 3; ++id) {
    udp.registerNode(id, [&udp, &hops, id](Message&& m) {
      hops.fetch_add(1);
      udp.send(Message{id, static_cast<NodeId>(id % 3 + 1), 7, m.payload});
    });
  }
  udp.start();
  inner.start();
  for (NodeId id = 1; id <= 3; ++id) {
    for (int token = 0; token < 4; ++token) {
      udp.send(Message{id, static_cast<NodeId>(id % 3 + 1), 7, "token"});
    }
  }
  ASSERT_TRUE(waitForCondition([&] { return hops.load() >= 3000; }));
  udp.stop();
  const uint64_t sentAtStop = udp.datagramsSent();
  const uint64_t hopsAtStop = hops.load();
  ASSERT_TRUE(waitForCondition([&] { return hops.load() > hopsAtStop + 1000; }));
  inner.stop();
  EXPECT_EQ(udp.datagramsSent(), sentAtStop);
  EXPECT_GT(udp.counters().get("udp.local_fallbacks"), 0u);
}

TEST(UdpContext, AckTimerOutlivingTheContextDoesNothing) {
  RealtimeContext inner;
  Receiver rx;
  {
    // A 400-ms base puts node 2's ack timer 50 ms out.
    UdpConfig config;
    config.retransmit.backoffBaseMicros = 400'000;
    UdpContext udp(inner, config);
    udp.registerNode(1, [](Message&&) {});
    udp.registerNode(2, rx.handler());
    udp.start();
    inner.start();
    udp.send(Message{1, 2, 7, "owes an ack"});
    ASSERT_TRUE(waitForCondition([&] { return rx.count.load() == 1; }));
  }
  // The destroyed context's ack timer fires on node 2 before this one.
  std::atomic<bool> later{false};
  inner.schedule(2, 100'000, [&] { later.store(true); });
  ASSERT_TRUE(waitForCondition([&] { return later.load(); }));
  inner.stop();
}

TEST(UdpContext, SpoofedSourceIsDroppedAndCounted) {
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  Receiver rx;
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, rx.handler());
  udp.start();
  inner.start();
  // A well-formed datagram claiming to come from node 1, sent from a
  // socket that is not node 1's.
  Datagram d;
  d.from = 1;
  d.to = 2;
  d.seq = 1;
  d.fragUid = 1;
  d.chunk = encodeMessageBody(Message{1, 2, 7, "forged", 99});
  const std::string bytes = encodeDatagram(d);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(udp.portOf(2));
  ASSERT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
  ASSERT_TRUE(waitForCondition([&] { return udp.sourceRejects() == 1; }));
  // The forgery never reached the dedup window: node 1's own seq 1 is
  // delivered.
  udp.send(Message{1, 2, 7, "genuine"});
  ASSERT_TRUE(waitForCondition([&] { return rx.count.load() == 1; }));
  inner.stop();
  udp.stop();
  EXPECT_EQ(udp.counters().get("udp.source_rejects"), 1u);
  std::lock_guard lk(rx.mu);
  ASSERT_EQ(rx.payloads.size(), 1u);
  EXPECT_EQ(rx.payloads.begin()->second, "genuine");
}

TEST(UdpContext, SendAfterStopFallsBackWithoutCrashing) {
  RealtimeContext inner;
  UdpContext udp(inner, UdpConfig{});
  udp.registerNode(1, [](Message&&) {});
  udp.registerNode(2, [](Message&&) {});
  udp.start();
  inner.start();
  inner.stop();
  udp.stop();
  EXPECT_GT(udp.send(Message{1, 2, 7, "late"}), 0u);  // dropped, not UB
}

}  // namespace
}  // namespace retro::runtime
