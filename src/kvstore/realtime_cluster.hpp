// Assembles a *realtime* Voldemort deployment: the exact same server/
// client/admin protocol objects as VoldemortCluster, but running on the
// thread-per-node RealtimeContext instead of the deterministic
// simulator.  This is the "real" half of the sim-vs-real differential
// suite: a seeded workload pushed through both assemblies must agree on
// per-key final state, produce consistent retrospective cuts, and
// answer temporal queries identically.
//
// Thread model: every node (server, client, admin) owns one worker
// thread; ALL interaction with a node after start() must go through
// ctx.post(nodeId, fn) so its state stays thread-confined.  Completion
// is observed via atomic counters + runtime::waitForCondition.
#pragma once

#include <memory>
#include <vector>

#include "kvstore/admin.hpp"
#include "kvstore/client.hpp"
#include "kvstore/server.hpp"
#include "runtime/faultful_context.hpp"
#include "runtime/real_clock.hpp"
#include "runtime/realtime_context.hpp"
#include "runtime/udp_context.hpp"
#include "sim/trace.hpp"

namespace retro::kv {

/// Which wire the nodes talk over.  Either way the protocol objects see
/// the same ExecutionContext seam; the chaos plane (when enabled) stacks
/// on top of whichever transport is selected.
enum class TransportKind {
  kInProcess,   ///< RealtimeContext's MPSC channel transport
  kUdpLoopback  ///< runtime::UdpContext — real UDP sockets on 127.0.0.1
};

struct RealtimeClusterConfig {
  size_t servers = 4;
  size_t clients = 4;
  uint64_t seed = 1;
  size_t ringVirtualNodes = 64;
  /// Fixed per-node skew drawn deterministically from `seed` within
  /// +/- this bound (the realtime stand-in for the NTP skew model).
  int64_t maxSkewMillis = 2;
  ServerConfig server;
  ClientConfig client;
  AdminConfig admin;

  /// Transport selector: in-process channels (default) or loss-hardened
  /// real UDP sockets on loopback.
  TransportKind transport = TransportKind::kInProcess;
  runtime::UdpConfig udp;

  /// Interpose a runtime::FaultfulContext between every node and the
  /// transport (the realtime chaos plane).  Off by default: the clean
  /// differential suites must see an unperturbed wire.
  bool enableFaultPlane = false;
  runtime::FaultPlaneConfig faultPlane;
  /// Arm ε-violation detection on every node's HLC with this bound
  /// (0 = off).  Under injected clock anomalies the detectors — not the
  /// skew-bound checks — are the expected signal.
  int64_t epsilonMillis = 0;
};

class RealtimeKvCluster {
 public:
  explicit RealtimeKvCluster(RealtimeClusterConfig config);
  ~RealtimeKvCluster();

  runtime::RealtimeContext& context() { return ctx_; }
  const Ring& ring() const { return *ring_; }

  size_t serverCount() const { return servers_.size(); }
  size_t clientCount() const { return clients_.size(); }
  VoldemortServer& server(size_t i) { return *servers_[i]; }
  VoldemortClient& client(size_t i) { return *clients_[i]; }
  AdminClient& admin() { return *admin_; }

  NodeId serverId(size_t i) const { return static_cast<NodeId>(i); }
  NodeId clientId(size_t i) const {
    return static_cast<NodeId>(config_.servers + i);
  }
  NodeId adminId() const {
    return static_cast<NodeId>(config_.servers + config_.clients);
  }
  /// The chaos controller node: owns every fault script timer, so fault
  /// start/end actions never run on (or block behind) a victim's thread.
  NodeId controllerId() const {
    return static_cast<NodeId>(config_.servers + config_.clients + 1);
  }

  /// Fixed skew offset of `node` (millis), for skew-bound cross-checks.
  int64_t skewMillisOf(NodeId node) const { return offsets_[node]; }
  /// The node's physical clock (fault scripts inject skew through it).
  runtime::RealtimePhysicalClock& clockAt(NodeId node) {
    return *clocks_[node];
  }

  /// The chaos plane (null unless config.enableFaultPlane).
  runtime::FaultfulContext* faultPlane() { return faultful_.get(); }
  /// The UDP transport (null unless config.transport == kUdpLoopback).
  runtime::UdpContext* udpTransport() { return udp_.get(); }
  /// The context nodes actually run on — the outermost layer of the
  /// stack faultful(udp(realtime)), with absent layers skipped.
  runtime::ExecutionContext& nodeContext() {
    if (faultful_) return *faultful_;
    if (udp_) return *udp_;
    return ctx_;
  }

  /// Crash / restart server i from outside (posts to its own thread;
  /// returns immediately).  Requires the cluster to be started.
  void crashServer(size_t i);
  void restartServer(size_t i);

  /// Start recording HLC events; must be called before start().
  sim::CausalityTrace& enableCausalityTrace();
  const sim::CausalityTrace* trace() const { return trace_.get(); }

  /// Spawn all node threads.  Construction/preload/trace wiring must be
  /// complete; after this, talk to nodes only via context().post().
  void start() {
    if (udp_) udp_->start();
    ctx_.start();
  }
  /// Join all node threads; cluster state is then safely readable.
  /// Releases any paused workers first so the joins cannot deadlock;
  /// the UDP transport goes down last (workers may still be sending
  /// until they stop, and its sockets close only once no worker polls
  /// them).
  void stop() {
    if (faultful_) faultful_->release();
    ctx_.stop();
    if (udp_) udp_->stop();
  }

  /// Same key naming as VoldemortCluster (differential runs share it).
  static Key keyOf(uint64_t i);

  /// Bulk-load an item into its replicas (setup; before start()).
  void preload(uint64_t items, size_t valueBytes);

 private:
  RealtimeClusterConfig config_;
  runtime::RealtimeContext ctx_;
  /// UDP transport wrapping ctx_ (null unless selected).  Declared after
  /// ctx_ (it holds a pointer into it), so it is destroyed first.
  std::unique_ptr<runtime::UdpContext> udp_;
  /// Chaos plane wrapping the transport stack (null unless enabled).
  /// Declared after udp_ (it may hold a pointer into it) and released
  /// before ctx_ joins.
  std::unique_ptr<runtime::FaultfulContext> faultful_;
  std::vector<int64_t> offsets_;  ///< per-node skew millis, indexed by id
  std::vector<std::unique_ptr<runtime::RealtimePhysicalClock>> clocks_;
  std::unique_ptr<Ring> ring_;
  std::vector<std::unique_ptr<VoldemortServer>> servers_;
  std::vector<std::unique_ptr<VoldemortClient>> clients_;
  std::unique_ptr<AdminClient> admin_;
  std::unique_ptr<sim::CausalityTrace> trace_;
};

}  // namespace retro::kv
