// Simulated disk: a serial resource with seek latency and bandwidth.
// Snapshot data-copy, BDB log flushes/cleaning, and snapshot persistence
// all contend for the node's disk — that contention produces the
// throughput dips of Figs. 12/17/18 rather than having them scripted.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "runtime/execution_context.hpp"
#include "sim/storage_faults.hpp"

namespace retro::sim {

struct DiskConfig {
  double readMBps = 180.0;    ///< sequential read bandwidth
  double writeMBps = 120.0;   ///< sequential write bandwidth
  TimeMicros seekMicros = 120;  ///< fixed per-operation latency
};

class SimDisk {
 public:
  /// `owner` routes completion callbacks to the owning node's thread
  /// under the realtime runtime (ignored by the simulator).  Seek and
  /// transfer time are charged only under the simulator: on a realtime
  /// context every completion is posted at once (bytes still count).
  SimDisk(runtime::ExecutionContext& ctx, DiskConfig config,
          NodeId owner = 0);

  /// Queue an asynchronous read/write of `bytes`; `done` runs when the
  /// operation completes. Operations execute serially in FIFO order.
  void read(uint64_t bytes, std::function<void()> done);
  void write(uint64_t bytes, std::function<void()> done);

  /// Virtual time at which the disk becomes idle.
  TimeMicros busyUntil() const { return busyUntil_; }
  bool busy() const { return busyUntil_ > ctx_->now(); }

  uint64_t bytesRead() const { return bytesRead_; }
  uint64_t bytesWritten() const { return bytesWritten_; }

  const DiskConfig& config() const { return config_; }

  /// Attach a corruption fault model (not owned).  With a model
  /// attached, each read may fail transiently: the disk re-reads the
  /// same bytes (an extra seek + transfer) before completing, which is
  /// how flaky-media latency reaches recovery timings.
  void attachFaults(StorageFaultModel* faults) { faults_ = faults; }

  uint64_t readRetries() const { return readRetries_; }

 private:
  void submit(uint64_t bytes, double mbps, std::function<void()> done);

  runtime::ExecutionContext* ctx_;
  NodeId owner_;
  bool realtime_;
  DiskConfig config_;
  StorageFaultModel* faults_ = nullptr;
  uint64_t readRetries_ = 0;
  TimeMicros busyUntil_ = 0;
  uint64_t bytesRead_ = 0;
  uint64_t bytesWritten_ = 0;
};

}  // namespace retro::sim
