// Workload generation for the evaluation harnesses (§V, §VI): read/write
// mixes from 10% to 100% writes, uniform / zipfian / hotspot (80-20) key
// popularity, fixed-size values.
#pragma once

#include <cstdint>
#include <memory>

#include "common/random.hpp"
#include "common/types.hpp"

namespace retro::workload {

enum class KeyDistribution : uint8_t { kUniform, kZipfian, kHotspot };

struct WorkloadConfig {
  double writeFraction = 1.0;  ///< 1.0 = 100% write workload
  uint64_t keySpace = 1'000'000;
  size_t valueBytes = 100;
  KeyDistribution distribution = KeyDistribution::kUniform;
  double hotKeyFraction = 0.2;   ///< hotspot: 20% of keys ...
  double hotOpFraction = 0.8;    ///< ... receive 80% of operations
};

struct Op {
  bool isWrite = true;
  uint64_t keyIndex = 0;
};

class OpGenerator {
 public:
  OpGenerator(const WorkloadConfig& config, Rng rng);

  Op next();
  const WorkloadConfig& config() const { return config_; }

  /// A value payload of the configured size, varying with `salt` so
  /// values are distinguishable in correctness checks.
  Value makeValue(uint64_t salt) const;

 private:
  WorkloadConfig config_;
  Rng rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unique_ptr<HotspotGenerator> hotspot_;
};

}  // namespace retro::workload
