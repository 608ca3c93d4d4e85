// The simulator's price list for a VoldemortServer: every modelled charge
// the server hands its Executor, as a function of the work a stage
// reports, and the synthetic JVM heap (Fig. 13) that turns live data into
// GC slowdown and, past the limit, an OutOfMemory crash.  A realtime
// Executor drops every charge; the heap model is built only under the
// simulator, since a realtime node's heap is the host's own.
#pragma once

#include <optional>

#include "core/temporal_query.hpp"
#include "kvstore/messages.hpp"
#include "log/archive.hpp"
#include "sim/memory_model.hpp"

namespace retro::kv {

struct ServerConfig;

class SimCosts {
 public:
  /// Reads its prices from `config`, which must outlive it.
  SimCosts(const ServerConfig& config, bool realtime);

  /// CPU to serve one received request.  A put's append pays GC coupling
  /// that grows with the heap.
  TimeMicros receive(const PutRequestBody&) const;
  TimeMicros receive(const GetRequestBody&) const;
  TimeMicros receive(const SnapshotRequestBody&) const { return 500; }
  TimeMicros receive(const QueryRequestBody&) const { return 300; }
  TimeMicros receive(const ProgressRequestBody&) const { return kControl; }
  TimeMicros receive(const RepairRequestBody&) const { return kRepair; }
  TimeMicros receive(const RepairResponseBody&) const { return kRepair; }
  TimeMicros receive(const GossipBody&) const { return kMembership; }
  TimeMicros receive(const JoinRequestBody&) const { return 80; }
  TimeMicros receive(const JoinResponseBody&) const { return kMembership; }
  TimeMicros receive(const TransferAckBody&) const { return kControl; }
  /// Roughly what the chunk's items would cost as puts.
  TimeMicros receive(const TransferChunkBody& body) const {
    return 150 + static_cast<TimeMicros>(body.items.size()) * 20;
  }

  /// Recovery at restart: replaying `tailEntries` journal entries and
  /// verifying the checksum of each of the `bytesRead` read back.
  TimeMicros restart(uint64_t bytesRead, uint64_t tailEntries) const;
  /// Copying `bytes` of the store into a full snapshot, checksummed.
  TimeMicros copy(uint64_t bytes) const;
  /// Compaction: the entries the diff engine materialized and the index
  /// and key-chain probes (much cheaper per unit) it spent finding them.
  TimeMicros compaction(const log::DiffStats& stats) const;
  /// Compaction through the disk archive, where an archived entry costs
  /// a slower read (decode and page-in).
  TimeMicros compaction(const log::ArchiveDiffStats& stats) const;
  /// Applying `keys` changed keys to a snapshot.
  TimeMicros apply(uint64_t keys) const;
  /// A temporal query's replay, priced with the snapshot path's knobs:
  /// the base state's keys, every diff entry applied, and the diff
  /// engine's traversal and probing.
  TimeMicros replay(const core::ReplayStats& stats) const;

  /// Feed the heap model the store's live data and the window-logs'
  /// bytes.  True once, on the update that runs the heap out of memory.
  bool heapExhausted(uint64_t dataBytes, uint64_t logBytes);
  /// The executor slowdown the heap's GC pressure implies (>= 1).
  double gcSlowdown() const;

 private:
  static constexpr TimeMicros kRepair = 200;      // request and response
  static constexpr TimeMicros kMembership = 60;   // gossip, join response
  static constexpr TimeMicros kControl = 50;      // progress, transfer ack

  const ServerConfig* config_;
  std::optional<sim::MemoryModel> heap_;
};

}  // namespace retro::kv
