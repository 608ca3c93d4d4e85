#include "runtime/datagram.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/checksum.hpp"

namespace retro::runtime {

std::string encodeMessageBody(const Message& message) {
  ByteWriter w;
  w.writeU32(message.type);
  w.writeU64(message.msgId);
  w.writeBytes(message.payload);
  return w.take();
}

std::optional<Message> decodeMessageBody(NodeId from, NodeId to,
                                         std::string_view body) {
  try {
    ByteReader r(body);
    Message m;
    m.from = from;
    m.to = to;
    m.type = r.readU32();
    m.msgId = r.readU64();
    m.payload = r.readBytes();
    if (!r.atEnd()) return std::nullopt;  // trailing garbage
    return m;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::string encodeDatagram(const Datagram& d) {
  ByteWriter w;
  w.writeU8(static_cast<uint8_t>(d.kind));
  w.writeU32(d.from);
  w.writeU32(d.to);
  if (d.kind == DatagramKind::kData) {
    w.writeU64(d.seq);
    w.writeU64(d.fragUid);
    w.writeU32(d.fragIndex);
    w.writeU32(d.fragCount);
  }
  w.writeVarU64(d.ackedSeqs.size());
  for (uint64_t seq : d.ackedSeqs) w.writeU64(seq);
  if (d.kind == DatagramKind::kData) w.writeRaw(d.chunk);
  std::string out;
  appendFrame(out, w.view());
  return out;
}

std::optional<Datagram> decodeDatagram(std::string_view bytes) {
  const FrameView frame = readFrame(bytes, 0);
  if (!frame.ok() || frame.frameBytes != bytes.size()) return std::nullopt;
  try {
    ByteReader r(frame.payload);
    Datagram d;
    const uint8_t kind = r.readU8();
    if (kind != static_cast<uint8_t>(DatagramKind::kData) &&
        kind != static_cast<uint8_t>(DatagramKind::kAck)) {
      return std::nullopt;
    }
    d.kind = static_cast<DatagramKind>(kind);
    d.from = r.readU32();
    d.to = r.readU32();
    if (d.kind == DatagramKind::kData) {
      d.seq = r.readU64();
      d.fragUid = r.readU64();
      d.fragIndex = r.readU32();
      d.fragCount = r.readU32();
      if (d.fragCount == 0 || d.fragIndex >= d.fragCount) return std::nullopt;
    }
    const uint64_t count = r.readCount(8);
    d.ackedSeqs.reserve(count);
    for (uint64_t i = 0; i < count; ++i) d.ackedSeqs.push_back(r.readU64());
    if (d.kind == DatagramKind::kData) {
      d.chunk.assign(frame.payload.substr(frame.payload.size() -
                                          r.remaining()));
    } else if (!r.atEnd()) {
      return std::nullopt;
    }
    return d;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::vector<std::string_view> chunkBody(std::string_view body,
                                        size_t maxChunkBytes) {
  if (maxChunkBytes == 0) maxChunkBytes = 1;
  std::vector<std::string_view> chunks;
  if (body.empty()) {
    chunks.emplace_back();
    return chunks;
  }
  for (size_t off = 0; off < body.size(); off += maxChunkBytes) {
    chunks.push_back(body.substr(off, maxChunkBytes));
  }
  return chunks;
}

// ---------------------------------------------------------------------------
// DedupWindow
// ---------------------------------------------------------------------------

DedupWindow::DedupWindow(size_t window)
    : window_(std::max<size_t>(window, 64)), bits_((window_ + 63) / 64, 0) {}

bool DedupWindow::testAndSet(uint64_t seq) {
  const size_t slot = static_cast<size_t>(seq % window_);
  uint64_t& word = bits_[slot / 64];
  const uint64_t mask = 1ULL << (slot % 64);
  const bool was = (word & mask) != 0;
  word |= mask;
  return was;
}

bool DedupWindow::accept(uint64_t seq) {
  if (!any_) {
    any_ = true;
    highest_ = seq;
    // Fresh window: claim this seq's slot; everything else stays clear.
    std::fill(bits_.begin(), bits_.end(), 0);
    testAndSet(seq);
    return true;
  }
  if (seq > highest_) {
    // Advance the window: slots for seqs now falling out of range are
    // recycled for the new high range, so every slot in
    // (highest_, seq] must be cleared before it can be claimed.  A jump
    // of window_ or more wipes the whole bitmap.
    const uint64_t advance = seq - highest_;
    if (advance >= window_) {
      std::fill(bits_.begin(), bits_.end(), 0);
    } else {
      for (uint64_t s = highest_ + 1; s <= seq; ++s) {
        const size_t slot = static_cast<size_t>(s % window_);
        bits_[slot / 64] &= ~(1ULL << (slot % 64));
      }
    }
    highest_ = seq;
    testAndSet(seq);
    return true;
  }
  if (highest_ - seq >= window_) {
    // Below the window: necessarily seen (the sender only moves on after
    // an ack, and acks originate from an accept here).
    ++duplicates_;
    return false;
  }
  if (testAndSet(seq)) {
    ++duplicates_;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reassembler
// ---------------------------------------------------------------------------

Reassembler::Reassembler(TimeMicros staleAfterMicros)
    : staleAfter_(staleAfterMicros) {}

std::optional<Message> Reassembler::feed(const Datagram& d, TimeMicros now) {
  if (d.fragCount == 1) {
    auto msg = decodeMessageBody(d.from, d.to, d.chunk);
    if (!msg) ++dropsMalformed_;
    return msg;
  }
  auto [it, inserted] = pending_.try_emplace(d.fragUid);
  Buffer& buf = it->second;
  if (inserted) {
    buf.chunks.resize(d.fragCount);
    buf.present.assign(d.fragCount, false);
    buf.remaining = d.fragCount;
  } else if (buf.chunks.size() != d.fragCount) {
    // A datagram disagreeing with its siblings about the fragment count
    // is corrupt in a way the CRC cannot see (sender bug / replay from a
    // dead incarnation): abandon the whole buffer.
    ++dropsMalformed_;
    pending_.erase(it);
    return std::nullopt;
  }
  if (buf.present[d.fragIndex]) return std::nullopt;  // duplicate chunk
  buf.present[d.fragIndex] = true;
  buf.chunks[d.fragIndex] = d.chunk;
  buf.lastProgress = now;
  if (--buf.remaining > 0) return std::nullopt;

  std::string body;
  for (const std::string& c : buf.chunks) body += c;
  pending_.erase(it);
  auto msg = decodeMessageBody(d.from, d.to, body);
  if (!msg) ++dropsMalformed_;
  return msg;
}

size_t Reassembler::sweep(TimeMicros now) {
  size_t dropped = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.lastProgress >= staleAfter_) {
      it = pending_.erase(it);
      ++dropped;
      ++dropsStale_;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace retro::runtime
