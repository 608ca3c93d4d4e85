#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>

namespace retro::sim {

void Executor::submit(TimeMicros serviceMicros, std::function<void()> task) {
  if (realtime_) {
    ctx_->post(owner_, std::move(task));
    return;
  }
  const auto scaled = static_cast<TimeMicros>(
      std::llround(static_cast<double>(serviceMicros) * slowdown_));
  const TimeMicros now = ctx_->now();
  const TimeMicros start = std::max(busyUntil_, now);
  busyUntil_ = start + scaled;
  totalBusy_ += scaled;
  ctx_->schedule(owner_, busyUntil_ - now, std::move(task));
}

}  // namespace retro::sim
