#include "direct_timing.hpp"

#include <unordered_map>

#include "core/retroscope.hpp"
#include "log/wal.hpp"
#include "stats.hpp"

namespace rtbench {

namespace {

namespace hlc = retro::hlc;
namespace rlog = retro::log;

/// The appends carry explicit timestamps; the physical clock is unused.
class UnusedClock final : public hlc::PhysicalClock {
 public:
  int64_t nowMillis() override { return 0; }
};

constexpr size_t kBatch = 256;
/// Timestamps advance 10 puts per millisecond (10 k puts/s), so the 5-s
/// window holds 50 k entries once full; the fill-up is not timed.
constexpr size_t kPutsPerMilli = 10;
constexpr size_t kFillPuts = 50'000;
constexpr size_t kTimedPuts = 131'072;
/// The server folds the WAL tail into its checkpoint every 2 s.
constexpr size_t kFoldEveryBatches = 20'000 / kBatch;
constexpr uint64_t kPreloaded = UINT64_MAX;

}  // namespace

AppendTimings timeLogAppends(const Workload& w, uint64_t seed) {
  const size_t total = kFillPuts + kTimedPuts;
  const auto stream = makeOps(
      seed, 0,
      static_cast<size_t>(static_cast<double>(total) / w.mix.putFraction) + 1024,
      w.mix, kKeys);
  std::vector<uint32_t> putKeys;
  putKeys.reserve(total);
  for (const Op& op : stream) {
    if (op.kind == OpKind::kPut) putKeys.push_back(op.key);
  }

  const ValueCodec codec(seed);
  UnusedClock clock;
  retro::core::Retroscope retroscope(clock,
                                     clusterConfig(w, seed).server.logConfig);
  rlog::WalJournal wal;
  std::vector<uint64_t> current(kKeys, kPreloaded);
  std::vector<double> appendNs;
  std::vector<double> walNs;
  std::vector<retro::Key> keys(kBatch);
  std::vector<retro::OptValue> olds(kBatch);
  std::vector<retro::OptValue> news(kBatch);
  std::vector<hlc::Timestamp> stamps(kBatch);
  std::vector<rlog::Entry> entries(kBatch);
  for (size_t base = 0; base + kBatch <= total; base += kBatch) {
    for (size_t j = 0; j < kBatch; ++j) {
      const size_t i = base + j;
      const uint32_t key = putKeys[i % putKeys.size()];
      keys[j] = retro::kv::RealtimeKvCluster::keyOf(key);
      olds[j] = current[key] == kPreloaded ? preloadValue()
                                           : codec.make(current[key], key);
      news[j] = codec.make(i, key);
      current[key] = i;
      stamps[j] = {static_cast<int64_t>(1'000'000 + i / kPutsPerMilli),
                   static_cast<uint32_t>(i % kPutsPerMilli)};
      entries[j] = rlog::Entry{keys[j], olds[j], news[j], stamps[j]};
    }
    const int64_t t0 = nowNs();
    for (size_t j = 0; j < kBatch; ++j) {
      retroscope.appendToLog(retro::kv::VoldemortServer::kStoreLog, keys[j],
                             std::move(olds[j]), std::move(news[j]),
                             stamps[j]);
    }
    const int64_t t1 = nowNs();
    for (size_t j = 0; j < kBatch; ++j) wal.append(entries[j], true);
    const int64_t t2 = nowNs();
    if (base >= kFillPuts) {
      appendNs.push_back(static_cast<double>(t1 - t0) / kBatch);
      walNs.push_back(static_cast<double>(t2 - t1) / kBatch);
    }
    if ((base / kBatch) % kFoldEveryBatches == 0) wal.foldIntoCheckpoint();
  }
  return {median(std::move(appendNs)), median(std::move(walNs))};
}

double timeStateCopyMs(retro::kv::RealtimeKvCluster& cluster) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t s = 0; s < cluster.serverCount(); ++s) {
      const int64_t start = nowNs();
      const std::unordered_map<retro::Key, retro::Value> copy =
          cluster.server(s).bdb().data();
      ms.push_back(static_cast<double>(nowNs() - start) / 1e6);
      if (copy.empty()) return std::nan("");
    }
  }
  return median(std::move(ms));
}

}  // namespace rtbench
