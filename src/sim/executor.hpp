// Per-node CPU resource: tasks execute serially, each occupying the CPU
// for its service time.  Foreground request handling and background
// snapshot work (log compaction, state copying) share the executor, so
// snapshot activity slows request processing the way it does on a real
// node.  A slowdown-factor hook lets the memory model inject GC-style
// degradation (Fig. 13).
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "runtime/execution_context.hpp"

namespace retro::sim {

class Executor {
 public:
  /// `owner` is the node whose execution thread runs submitted tasks
  /// under the realtime runtime (ignored by the simulator).  The cost
  /// model applies only under the simulator: on a realtime context the
  /// real compute is the cost, so service times are not charged.
  explicit Executor(runtime::ExecutionContext& ctx, NodeId owner = 0)
      : ctx_(&ctx), owner_(owner), realtime_(ctx.isRealtime()) {}

  /// Run `task` after occupying the CPU for `serviceMicros` (scaled by
  /// the slowdown factor). Tasks run in submission order.  Under a
  /// realtime context the task is posted to the owner at once, and
  /// neither busyUntil() nor totalBusyMicros() moves.
  void submit(TimeMicros serviceMicros, std::function<void()> task);

  /// Multiplier applied to every service time (>= 1). The memory model
  /// raises this as heap pressure grows.
  void setSlowdownFactor(double factor) { slowdown_ = factor < 1 ? 1 : factor; }
  double slowdownFactor() const { return slowdown_; }

  TimeMicros busyUntil() const { return busyUntil_; }
  bool busy() const { return busyUntil_ > ctx_->now(); }

  /// Total CPU time consumed (utilization accounting).
  TimeMicros totalBusyMicros() const { return totalBusy_; }

 private:
  runtime::ExecutionContext* ctx_;
  NodeId owner_;
  bool realtime_;
  TimeMicros busyUntil_ = 0;
  TimeMicros totalBusy_ = 0;
  double slowdown_ = 1.0;
};

}  // namespace retro::sim
