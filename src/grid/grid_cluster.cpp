#include "grid/grid_cluster.hpp"

#include <cstdio>

namespace retro::grid {

GridCluster::GridCluster(GridConfig config)
    : config_(std::move(config)), env_(config_.seed) {
  const size_t totalNodes = config_.members + config_.clients;
  clocks_ = std::make_unique<sim::ClockFleet>(env_, config_.clocks, totalNodes);
  network_ = std::make_unique<sim::Network>(env_, config_.network);
  ctx_ = std::make_unique<sim::SimContext>(env_, *network_);
  table_ = std::make_unique<PartitionTable>(config_.members, kPartitions,
                                            kBackups);

  for (size_t i = 0; i < config_.members; ++i) {
    members_.push_back(std::make_unique<GridMember>(
        static_cast<NodeId>(i), *ctx_,
        clocks_->clock(static_cast<NodeId>(i)), *table_, config_.member));
    if (config_.heartbeats) members_.back()->startHeartbeats();
  }
  const bool hlcEnabled = config_.member.mode != Mode::kOriginal;
  for (size_t i = 0; i < config_.clients; ++i) {
    const auto id = static_cast<NodeId>(config_.members + i);
    clients_.push_back(std::make_unique<GridClient>(
        id, *ctx_, clocks_->clock(id), *table_, hlcEnabled));
  }
}

sim::CausalityTrace& GridCluster::enableCausalityTrace() {
  if (!trace_) {
    const size_t totalNodes = config_.members + config_.clients;
    trace_ = std::make_unique<sim::CausalityTrace>(env_, *clocks_, totalNodes);
    for (auto& m : members_) m->setTrace(trace_.get());
    for (auto& c : clients_) c->setTrace(trace_.get());
  }
  return *trace_;
}

void GridCluster::setEpsilonDetection(int64_t epsilonMillis) {
  for (auto& m : members_) {
    m->retroscope().clock().setEpsilonMillis(epsilonMillis);
  }
  for (auto& c : clients_) c->clock().setEpsilonMillis(epsilonMillis);
}

uint64_t GridCluster::totalEpsilonViolations() const {
  uint64_t total = 0;
  for (const auto& m : members_) {
    total += m->retroscope().clock().epsilonViolations();
  }
  for (const auto& c : clients_) total += c->clock().epsilonViolations();
  return total;
}

Key GridCluster::keyOf(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "gkey-%09llu",
                static_cast<unsigned long long>(i));
  return Key(buf);
}

void GridCluster::preload(uint64_t items, size_t valueBytes) {
  const Value value(valueBytes, 'g');
  for (uint64_t i = 0; i < items; ++i) {
    const Key key = keyOf(i);
    for (auto& m : members_) m->preload(key, value);
  }
}

uint64_t GridCluster::totalPrimaryItems() const {
  uint64_t total = 0;
  for (const auto& m : members_) {
    for (uint32_t p : table_->partitionsOwnedBy(m->id())) {
      const auto* data = m->partitionData(p);
      if (data) total += data->size();
    }
  }
  return total;
}

}  // namespace retro::grid
