// A smart grid client: routes Map operations straight to the partition
// owner (Hazelcast smart-client routing) and participates in HLC
// propagation when Retroscope is enabled.
#pragma once

#include <functional>
#include <unordered_map>

#include "grid/messages.hpp"
#include "grid/partition_table.hpp"
#include "hlc/clock.hpp"
#include "runtime/execution_context.hpp"
#include "sim/clock_model.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace retro::grid {

class GridClient {
 public:
  using PutCallback = std::function<void(bool ok, TimeMicros latency)>;
  using GetCallback =
      std::function<void(bool ok, TimeMicros latency, OptValue value)>;

  GridClient(NodeId id, runtime::ExecutionContext& ctx,
             hlc::PhysicalClock& clock, const PartitionTable& table,
             bool hlcEnabled);

  NodeId id() const { return id_; }
  hlc::Clock& clock() { return clock_; }

  void put(const Key& key, Value value, PutCallback done);
  void get(const Key& key, GetCallback done);

  uint64_t opsCompleted() const { return opsCompleted_; }
  /// Received messages dropped undelivered: truncated, trailing bytes,
  /// or a type this client does not serve.
  uint64_t malformedMessages() const { return malformedMessages_; }

  /// Attach a causality trace (fuzz harness); null disables recording.
  /// Only meaningful when hlcEnabled.
  void setTrace(sim::CausalityTrace* trace) { trace_ = trace; }

 private:
  struct PendingOp {
    bool isPut = false;
    TimeMicros startedAt = 0;
    PutCallback putDone;
    GetCallback getDone;
  };

  void onMessage(sim::Message&& msg);

  NodeId id_;
  runtime::ExecutionContext* ctx_;
  hlc::Clock clock_;
  const PartitionTable* table_;
  bool hlcEnabled_;
  sim::CausalityTrace* trace_ = nullptr;

  uint64_t nextRequestId_ = 1;
  std::unordered_map<uint64_t, PendingOp> pending_;
  uint64_t opsCompleted_ = 0;
  uint64_t malformedMessages_ = 0;
};

}  // namespace retro::grid
