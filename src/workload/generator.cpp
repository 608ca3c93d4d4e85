#include "workload/generator.hpp"

#include <cstdio>

namespace retro::workload {

OpGenerator::OpGenerator(const WorkloadConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  switch (config_.distribution) {
    case KeyDistribution::kZipfian: {
      constexpr double kZipfTheta = 0.99;  // YCSB's default skew
      zipf_ = std::make_unique<ZipfGenerator>(config_.keySpace, kZipfTheta);
      break;
    }
    case KeyDistribution::kHotspot:
      hotspot_ = std::make_unique<HotspotGenerator>(
          config_.keySpace, config_.hotKeyFraction, config_.hotOpFraction);
      break;
    case KeyDistribution::kUniform:
      break;
  }
}

Op OpGenerator::next() {
  Op op;
  op.isWrite = rng_.nextBool(config_.writeFraction);
  switch (config_.distribution) {
    case KeyDistribution::kUniform:
      op.keyIndex = rng_.nextBounded(config_.keySpace);
      break;
    case KeyDistribution::kZipfian:
      op.keyIndex = zipf_->next(rng_);
      break;
    case KeyDistribution::kHotspot:
      op.keyIndex = hotspot_->next(rng_);
      break;
  }
  return op;
}

Value OpGenerator::makeValue(uint64_t salt) const {
  Value v(config_.valueBytes, 'x');
  // Stamp the salt into the head of the value so distinct writes differ.
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(salt));
  for (int i = 0; i < n && i < static_cast<int>(v.size()); ++i) v[i] = buf[i];
  return v;
}

}  // namespace retro::workload
