#include "kvstore/realtime_cluster.hpp"

#include <cstdio>

#include "common/random.hpp"

namespace retro::kv {

RealtimeKvCluster::RealtimeKvCluster(RealtimeClusterConfig config)
    : config_(std::move(config)) {
  // One extra slot when the chaos plane is on: the controller node that
  // owns fault script timers (no clock offset; it never ticks HLC).
  const size_t totalNodes =
      config_.servers + config_.clients + 1 + (config_.enableFaultPlane ? 1 : 0);

  // Deterministic fixed skews within the bound; node 0 pinned to zero so
  // at least one node reads unshifted time.
  SplitMix64 rng(config_.seed ^ 0xC1A55E5ULL);
  offsets_.resize(totalNodes, 0);
  for (size_t i = 1; i < config_.servers + config_.clients + 1; ++i) {
    const int64_t span = 2 * config_.maxSkewMillis + 1;
    offsets_[i] = static_cast<int64_t>(rng.next() %
                                       static_cast<uint64_t>(span)) -
                  config_.maxSkewMillis;
  }
  // Shared HLC epoch base so physical components are nonzero.
  constexpr int64_t kEpochBaseMillis = 1'000'000;
  clocks_.reserve(totalNodes);
  for (size_t i = 0; i < totalNodes; ++i) {
    clocks_.push_back(std::make_unique<runtime::RealtimePhysicalClock>(
        ctx_, kEpochBaseMillis, offsets_[i]));
  }

  if (config_.transport == TransportKind::kUdpLoopback) {
    udp_ = std::make_unique<runtime::UdpContext>(ctx_, config_.udp);
  }
  if (config_.enableFaultPlane) {
    // The chaos plane stacks on the outermost transport: script faults
    // are end-to-end losses the protocols must absorb, while the UDP
    // layer below separately hides its own kernel-path losses.
    runtime::ExecutionContext& below =
        udp_ ? static_cast<runtime::ExecutionContext&>(*udp_) : ctx_;
    faultful_ =
        std::make_unique<runtime::FaultfulContext>(below, config_.faultPlane);
  }
  runtime::ExecutionContext& nodeCtx = nodeContext();

  ring_ = std::make_unique<Ring>(config_.servers, config_.ringVirtualNodes);
  config_.client.ringVirtualNodes = config_.ringVirtualNodes;
  config_.admin.ringVirtualNodes = config_.ringVirtualNodes;

  for (size_t i = 0; i < config_.servers; ++i) {
    servers_.push_back(std::make_unique<VoldemortServer>(
        serverId(i), nodeCtx, *clocks_[i], config_.server));
  }
  std::vector<NodeId> serverIds;
  for (size_t i = 0; i < config_.servers; ++i) serverIds.push_back(serverId(i));
  for (auto& s : servers_) {
    s->setRepairTopology(ring_.get(), serverIds, config_.client.replicas);
  }
  for (size_t i = 0; i < config_.clients; ++i) {
    const NodeId id = clientId(i);
    clients_.push_back(std::make_unique<VoldemortClient>(
        id, nodeCtx, *clocks_[id], *ring_, config_.client));
  }
  admin_ = std::make_unique<AdminClient>(adminId(), nodeCtx,
                                         *clocks_[adminId()], serverIds,
                                         config_.admin, ring_.get());

  if (config_.enableFaultPlane) {
    // The controller node never receives protocol traffic; its worker
    // exists solely to service fault script timers off-victim.
    nodeCtx.registerNode(controllerId(), [](sim::Message&&) {});
  }

  if (config_.epsilonMillis > 0) {
    for (auto& s : servers_) {
      s->retroscope().clock().setEpsilonMillis(config_.epsilonMillis);
    }
    for (auto& c : clients_) c->clock().setEpsilonMillis(config_.epsilonMillis);
    admin_->clock().setEpsilonMillis(config_.epsilonMillis);
  }
}

RealtimeKvCluster::~RealtimeKvCluster() {
  if (faultful_) faultful_->release();
  ctx_.stop();
  if (udp_) udp_->stop();
}

void RealtimeKvCluster::crashServer(size_t i) {
  nodeContext().post(serverId(i), [s = servers_[i].get()] { s->crash(); });
}

void RealtimeKvCluster::restartServer(size_t i) {
  nodeContext().post(serverId(i), [s = servers_[i].get()] { s->restart(); });
}

sim::CausalityTrace& RealtimeKvCluster::enableCausalityTrace() {
  if (!trace_) {
    const size_t totalNodes = config_.servers + config_.clients + 1;
    // Perceived time = context time shifted by the node's *current*
    // total offset — fixed skew plus any fault-injected anomaly — so the
    // trace stays honest under skew-spike episodes; ground truth =
    // unshifted context time.  Without anomalies |perceived - true| is
    // exactly the configured skew, which checkSkewBound verifies.
    trace_ = std::make_unique<sim::CausalityTrace>(
        [this](NodeId node, TimeMicros trueNow) {
          return trueNow + clocks_[node]->totalOffsetMillis() * kMicrosPerMilli;
        },
        [this] { return ctx_.now(); }, totalNodes);
    for (auto& s : servers_) s->setTrace(trace_.get());
    for (auto& c : clients_) c->setTrace(trace_.get());
    admin_->setTrace(trace_.get());
  }
  return *trace_;
}

Key RealtimeKvCluster::keyOf(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%010llu",
                static_cast<unsigned long long>(i));
  return Key(buf);
}

void RealtimeKvCluster::preload(uint64_t items, size_t valueBytes) {
  const Value value(valueBytes, 'v');
  for (uint64_t i = 0; i < items; ++i) {
    const Key key = keyOf(i);
    for (NodeId replica : ring_->preferenceList(key, config_.client.replicas)) {
      servers_[replica]->preload(key, value);
    }
  }
}

}  // namespace retro::kv
