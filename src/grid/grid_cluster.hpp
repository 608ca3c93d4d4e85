// Assembles a simulated Hazelcast deployment: members + smart clients +
// partition table on one network — the paper's §VI testbed (3 members,
// 10 clients) in deterministic miniature.
#pragma once

#include <memory>
#include <vector>

#include "grid/grid_client.hpp"
#include "grid/member.hpp"
#include "sim/clock_model.hpp"
#include "sim/network.hpp"
#include "sim/sim_context.hpp"
#include "sim/sim_env.hpp"
#include "sim/trace.hpp"

namespace retro::grid {

struct GridConfig {
  size_t members = 3;
  size_t clients = 10;
  uint64_t seed = 1;
  MemberConfig member;
  sim::NetworkConfig network;
  sim::ClockModelConfig clocks;
  bool heartbeats = true;
};

class GridCluster {
 public:
  /// Hazelcast's default partition count, each with one backup copy.
  static constexpr size_t kPartitions = 271;
  static constexpr size_t kBackups = 1;

  explicit GridCluster(GridConfig config);

  sim::SimEnv& env() { return env_; }
  sim::Network& network() { return *network_; }
  sim::SimContext& context() { return *ctx_; }
  const PartitionTable& partitionTable() const { return *table_; }

  size_t memberCount() const { return members_.size(); }
  size_t clientCount() const { return clients_.size(); }
  GridMember& member(size_t i) { return *members_[i]; }
  GridClient& client(size_t i) { return *clients_[i]; }

  /// The skewed physical clock backing node i (members first, then
  /// clients) — used by experiments that emulate naive NTP-time reads.
  sim::SkewedClock& clockOf(NodeId i) { return clocks_->clock(i); }

  static Key keyOf(uint64_t i);

  /// Start recording every HLC send/recv/local event into a causality
  /// trace (fuzz harness).  Idempotent; returns the trace.  Requires a
  /// non-kOriginal member mode (HLC must be on).
  sim::CausalityTrace& enableCausalityTrace();
  const sim::CausalityTrace* trace() const { return trace_.get(); }

  /// Arm ε-violation detection on every node's HLC.
  void setEpsilonDetection(int64_t epsilonMillis);

  /// Sum of per-node HLC ε-violation counters.
  uint64_t totalEpsilonViolations() const;

  /// Load `items` of `valueBytes` each into owners and backups directly.
  void preload(uint64_t items, size_t valueBytes);

  uint64_t totalPrimaryItems() const;

 private:
  GridConfig config_;
  sim::SimEnv env_;
  std::unique_ptr<sim::ClockFleet> clocks_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::SimContext> ctx_;
  std::unique_ptr<PartitionTable> table_;
  std::vector<std::unique_ptr<GridMember>> members_;
  std::vector<std::unique_ptr<GridClient>> clients_;
  std::unique_ptr<sim::CausalityTrace> trace_;
};

}  // namespace retro::grid
