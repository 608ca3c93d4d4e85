#include "sim/disk.hpp"

#include <algorithm>
#include <cmath>

namespace retro::sim {

SimDisk::SimDisk(runtime::ExecutionContext& ctx, DiskConfig config,
                 NodeId owner)
    : ctx_(&ctx), owner_(owner), realtime_(ctx.isRealtime()),
      config_(config) {}

void SimDisk::submit(uint64_t bytes, double mbps, std::function<void()> done) {
  if (realtime_) {
    ctx_->post(owner_, std::move(done));
    return;
  }
  const double seconds = static_cast<double>(bytes) / (mbps * 1e6);
  const auto transfer =
      static_cast<TimeMicros>(std::llround(seconds * kMicrosPerSecond));
  const TimeMicros now = ctx_->now();
  const TimeMicros start = std::max(busyUntil_, now);
  busyUntil_ = start + config_.seekMicros + transfer;
  ctx_->schedule(owner_, busyUntil_ - now, std::move(done));
}

void SimDisk::read(uint64_t bytes, std::function<void()> done) {
  if (faults_ != nullptr && faults_->transientReadError()) {
    // The first attempt fails partway through: charge a wasted pass,
    // then the retry carries the completion.
    ++readRetries_;
    bytesRead_ += bytes;
    submit(bytes, config_.readMBps, [] {});
  }
  bytesRead_ += bytes;
  submit(bytes, config_.readMBps, std::move(done));
}

void SimDisk::write(uint64_t bytes, std::function<void()> done) {
  bytesWritten_ += bytes;
  submit(bytes, config_.writeMBps, std::move(done));
}

}  // namespace retro::sim
