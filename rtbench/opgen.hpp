// Seeded load generation for the realtime benchmark.  The op streams, the
// open-loop arrival schedule and the values written are pure functions of
// the workload seed, so one seed always yields the same op stream
// (StreamHash fingerprints it in the run log).  The cluster only ever
// sees what these functions generate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rtbench {

inline uint64_t mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64 stream.  `salt` separates the independent streams one seed
/// drives: every load lane, the arrival gaps, cluster skew, the values.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t salt) : state_(mix64(seed) ^ mix64(~salt)) {}
  uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Stream salts; load lanes use their lane index (small integers).
inline constexpr uint64_t kSaltArrivals = 1000;
inline constexpr uint64_t kSaltClusterSkew = 1001;
inline constexpr uint64_t kSaltValues = 1003;

inline uint64_t deriveSeed(uint64_t seed, uint64_t salt) {
  return Rng(seed, salt).next();
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases") over popularity ranks [0, n).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    half_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - half_ / zetan);
  }

  /// Rank 0 is the hottest item.
  uint64_t rank(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_) return 1;
    const auto r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

  /// Probability of rank 0.
  double hottestShare() const { return 1.0 / zetan_; }

 private:
  uint64_t n_;
  double zetan_ = 0;
  double half_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Spread popularity ranks over the key space so the hottest keys do not
/// sit next to each other: a bijection on [0, n) whenever n shares no
/// factor with the prime multiplier (true for every power of ten).
inline uint32_t scatter(uint64_t rank, uint64_t n) {
  return static_cast<uint32_t>((rank * 2654435761ULL) % n);
}

enum class OpKind : uint8_t { kGet = 0, kPut = 1 };

struct Op {
  uint32_t key = 0;
  OpKind kind = OpKind::kGet;
};

struct OpMix {
  double putFraction = 0;
  bool zipf = false;  ///< Zipfian keys (theta 0.99), else uniform
};

inline constexpr double kZipfTheta = 0.99;

/// `count` ops of load lane `lane` of the stream seeded by `seed`.
inline std::vector<Op> makeOps(uint64_t seed, uint64_t lane, size_t count,
                               const OpMix& mix, uint32_t keys) {
  Rng rng(seed, lane);
  std::optional<Zipf> zipf;
  if (mix.zipf) zipf.emplace(keys, kZipfTheta);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.kind = rng.uniform() < mix.putFraction ? OpKind::kPut : OpKind::kGet;
    op.key = zipf ? scatter(zipf->rank(rng), keys)
                  : static_cast<uint32_t>(rng.next() % keys);
  }
  return ops;
}

/// Poisson arrivals at `ratePerSec` over [0, spanNs): ascending offsets
/// in nanoseconds.
inline std::vector<int64_t> makeArrivals(uint64_t seed, double ratePerSec,
                                         int64_t spanNs) {
  Rng rng(seed, kSaltArrivals);
  std::vector<int64_t> out;
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) * 1e9 / ratePerSec;
    if (t >= static_cast<double>(spanNs)) break;
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

/// FNV-1a over 64-bit words.
class StreamHash {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void add(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      add((uint64_t{op.key} << 8) | static_cast<uint64_t>(op.kind));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline constexpr size_t kValueBytes = 128;

/// What RealtimeKvCluster::preload stores under every key.
inline std::string preloadValue() { return std::string(kValueBytes, 'v'); }

/// The values the benchmark writes: 128 bytes,
///   'w' <op id: 16 hex> <key: 8 hex> <tag: 16 hex>, padded with '.',
/// where the tag is a keyed hash of (seed, op id, key).  A read can then
/// be checked without remembering every write: it must return the
/// preloaded value or one this codec made for the same key.
class ValueCodec {
 public:
  explicit ValueCodec(uint64_t seed) : salt_(deriveSeed(seed, kSaltValues)) {}

  std::string make(uint64_t opId, uint32_t key) const {
    std::string v(kValueBytes, '.');
    v[0] = 'w';
    writeHex(&v[1], opId, 16);
    writeHex(&v[17], key, 8);
    writeHex(&v[25], tag(opId, key), 16);
    return v;
  }

  bool known(const std::string& v, uint32_t key) const {
    if (v.size() != kValueBytes) return false;
    if (v[0] == 'v') {
      return std::all_of(v.begin(), v.end(), [](char c) { return c == 'v'; });
    }
    uint64_t opId = 0;
    uint64_t k = 0;
    uint64_t t = 0;
    if (v[0] != 'w' || !readHex(&v[1], 16, &opId) || !readHex(&v[17], 8, &k) ||
        !readHex(&v[25], 16, &t)) {
      return false;
    }
    return k == key && t == tag(opId, key) &&
           std::all_of(v.begin() + kHeaderBytes, v.end(),
                       [](char c) { return c == '.'; });
  }

 private:
  static constexpr long kHeaderBytes = 41;

  uint64_t tag(uint64_t opId, uint32_t key) const {
    return mix64(salt_ ^ mix64(opId ^ (uint64_t{key} << 40)));
  }
  static void writeHex(char* p, uint64_t x, int digits) {
    for (int i = digits - 1; i >= 0; --i, x >>= 4) {
      p[i] = "0123456789abcdef"[x & 15];
    }
  }
  static bool readHex(const char* p, int digits, uint64_t* out) {
    uint64_t x = 0;
    for (int i = 0; i < digits; ++i) {
      const char c = p[i];
      int d = -1;
      if (c >= '0' && c <= '9') d = c - '0';
      if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      if (d < 0) return false;
      x = (x << 4) | static_cast<uint64_t>(d);
    }
    *out = x;
    return true;
  }

  uint64_t salt_;
};

}  // namespace rtbench
