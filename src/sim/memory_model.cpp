#include "sim/memory_model.hpp"

#include <cmath>

namespace retro::sim {

bool MemoryModel::setLiveBytes(uint64_t bytes) {
  liveBytes_ = bytes;
  if (liveBytes_ > config_.heapLimitBytes) outOfMemory_ = true;
  return !outOfMemory_;
}

double MemoryModel::utilization() const {
  if (config_.heapLimitBytes == 0) return 0;
  return static_cast<double>(liveBytes_) /
         static_cast<double>(config_.heapLimitBytes);
}

double MemoryModel::gcSlowdownFactor() const {
  const double u = utilization();
  if (u <= config_.pressureThreshold) return 1.0;
  // Normalize position within (threshold, 1]; cost grows polynomially
  // and is capped at kMaxSlowdown.
  const double span = 1.0 - config_.pressureThreshold;
  const double x = (u - config_.pressureThreshold) / span;
  const double factor = 1.0 + (kMaxSlowdown - 1.0) * std::pow(x, kGcSharpness);
  return factor > kMaxSlowdown ? kMaxSlowdown : factor;
}

}  // namespace retro::sim
