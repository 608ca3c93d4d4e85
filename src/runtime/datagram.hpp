// Wire codec for the UDP transport: CRC32C-framed datagrams carrying
// runtime::Message traffic plus the reliability-layer bookkeeping that
// makes a lossy kernel path look like the in-process channel transport
// to protocol code.
//
// Every datagram on the wire is one checksum frame (common/checksum's
// [len][crc][payload] layout — the same definition of "intact" the
// durable formats use), whose payload is:
//
//   u8  kind            kData or kAck
//   u32 from, u32 to    link endpoints (NodeIds)
//   kData:
//     u64 seq           per-link sequence number (dedup + ack identity)
//     u64 fragUid       message id within the link's fragment space
//     u32 fragIndex     this chunk's position
//     u32 fragCount     total chunks (1 = unfragmented fast path)
//     varint count, u64 seq[count]   acks for the reverse link, riding
//                       on the data (usually 0 or 1 of them)
//     bytes chunk       a slice of the serialized message body
//   kAck:
//     varint count, u64 seq[count]   batch of acked seqs
//
// The serialized message *body* (what fragmentation slices) is
//   u32 type, u64 msgId, bytes payload
// so msgId — the causality-trace correlation handle — survives the wire.
//
// Pure data + pure functions, so the codec unit-tests (round-trips,
// truncation/corruption rejection, dedup wraparound, the seeded lossy
// property test) run without sockets.  DedupWindow and Reassembler are
// the per-link receive state machines UdpContext instantiates per peer;
// neither is internally synchronized (the caller holds the link lock).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "runtime/message.hpp"

namespace retro::runtime {

enum class DatagramKind : uint8_t {
  kData = 1,
  kAck = 2,
};

struct Datagram {
  DatagramKind kind = DatagramKind::kData;
  NodeId from = 0;
  NodeId to = 0;
  // --- kData ---
  uint64_t seq = 0;
  uint64_t fragUid = 0;
  uint32_t fragIndex = 0;
  uint32_t fragCount = 1;
  std::string chunk;
  // --- both kinds: seqs of the reverse link (to -> from) acked here ---
  std::vector<uint64_t> ackedSeqs;
};

/// Serialize the message body fragmentation slices: type + msgId +
/// payload.  The inverse is decodeMessageBody.
std::string encodeMessageBody(const Message& message);

/// Decode a reassembled body back into a Message (from/to supplied by
/// the datagram envelope).  Returns nullopt on malformed input — a
/// reassembled body that does not parse is dropped, never delivered.
std::optional<Message> decodeMessageBody(NodeId from, NodeId to,
                                         std::string_view body);

/// Encode one datagram as a checksum frame ready for sendto().
std::string encodeDatagram(const Datagram& d);

/// Decode one received frame.  Returns nullopt when the frame is
/// truncated, fails its CRC, or carries a malformed payload — the
/// caller counts the rejection and drops the bytes (a retransmission
/// will carry them again).
std::optional<Datagram> decodeDatagram(std::string_view bytes);

/// Split a serialized message body into MTU-bounded chunks.  Always
/// returns at least one chunk (an empty body still needs a datagram).
std::vector<std::string_view> chunkBody(std::string_view body,
                                        size_t maxChunkBytes);

/// Sliding per-link dedup window over received sequence numbers.
///
/// accept(seq) returns true exactly once per seq for any seq within
/// `window` of the highest seq seen; older seqs are reported as
/// duplicates (they were necessarily delivered already: the sender
/// retransmits a seq until acked, and an ack is only sent from here —
/// so a seq that has fallen out of the window was accepted and acked
/// long ago).  This is what makes retransmit-after-lost-ack invisible
/// to protocol code.
class DedupWindow {
 public:
  explicit DedupWindow(size_t window = 1024);

  /// True if `seq` is fresh (first sight); marks it seen.
  bool accept(uint64_t seq);

  uint64_t highestSeen() const { return highest_; }
  uint64_t duplicates() const { return duplicates_; }

 private:
  bool testAndSet(uint64_t seq);

  size_t window_;
  std::vector<uint64_t> bits_;  ///< ring bitmap, window_ bits
  uint64_t highest_ = 0;        ///< highest accepted seq (0 = none yet)
  bool any_ = false;
  uint64_t duplicates_ = 0;
};

/// Per-link fragment reassembly.  feed() buffers chunks by fragUid and
/// returns the decoded Message when the last chunk lands.  Buffers that
/// see no progress for `staleAfterMicros` are dropped by sweep() — with
/// reliable retransmission below, a stale buffer means the sender died
/// mid-message, and half a message must never be delivered.
class Reassembler {
 public:
  explicit Reassembler(TimeMicros staleAfterMicros = 2'000'000);

  /// Buffer one kData datagram.  Returns the completed message when
  /// this chunk was the last missing piece.
  std::optional<Message> feed(const Datagram& d, TimeMicros now);

  /// Drop buffers with no progress since `now - staleAfterMicros`.
  /// Returns how many buffers were abandoned.
  size_t sweep(TimeMicros now);

  size_t pendingBuffers() const { return pending_.size(); }
  uint64_t dropsStale() const { return dropsStale_; }
  uint64_t dropsMalformed() const { return dropsMalformed_; }

 private:
  struct Buffer {
    std::vector<std::string> chunks;
    std::vector<bool> present;
    size_t remaining = 0;
    TimeMicros lastProgress = 0;
  };

  TimeMicros staleAfter_;
  std::map<uint64_t, Buffer> pending_;  ///< fragUid -> buffer
  uint64_t dropsStale_ = 0;
  uint64_t dropsMalformed_ = 0;
};

}  // namespace retro::runtime
