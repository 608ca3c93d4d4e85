#include "kvstore/sim_costs.hpp"

#include <cmath>

#include "kvstore/server.hpp"

namespace retro::kv {

namespace {
TimeMicros rounded(double micros) {
  return static_cast<TimeMicros>(std::llround(micros));
}
}  // namespace

SimCosts::SimCosts(const ServerConfig& config, bool realtime)
    : config_(&config) {
  if (!realtime) heap_.emplace(config.memory);
}

TimeMicros SimCosts::receive(const PutRequestBody&) const {
  if (!config_->windowLogEnabled) return config_->putServiceMicros;
  const double utilization = heap_ ? heap_->utilization() : 0;
  return config_->putServiceMicros + config_->logAppendMicros +
         static_cast<TimeMicros>(config_->logGcCouplingMicros * utilization);
}

TimeMicros SimCosts::receive(const GetRequestBody&) const {
  return config_->getServiceMicros;
}

TimeMicros SimCosts::restart(uint64_t bytesRead, uint64_t tailEntries) const {
  constexpr double kReplayMicrosPerEntry = 1.5;
  const TimeMicros replay =
      rounded(static_cast<double>(tailEntries) * kReplayMicrosPerEntry);
  // Hardware CRC32C runs at GB/s: cheap, not free.
  if (!config_->integrity.checksums) return replay;
  return replay + rounded(static_cast<double>(bytesRead) *
                          config_->integrity.checksumMicrosPerMB / 1e6);
}

TimeMicros SimCosts::copy(uint64_t bytes) const {
  // Checksumming the copied pages rides on the same per-byte charge.
  const double microsPerByte =
      (config_->copyCpuMicrosPerMB +
       (config_->integrity.checksums ? config_->integrity.checksumMicrosPerMB
                                     : 0)) /
      1e6;
  return rounded(static_cast<double>(bytes) * microsPerByte);
}

TimeMicros SimCosts::compaction(const log::DiffStats& stats) const {
  return rounded(static_cast<double>(stats.entriesTraversed) *
                     config_->compactionMicrosPerEntry +
                 static_cast<double>(stats.indexSeeks + stats.keysExamined) *
                     config_->indexProbeMicros);
}

TimeMicros SimCosts::compaction(const log::ArchiveDiffStats& stats) const {
  constexpr double kArchivedEntryReadMicros = 3.0;
  return compaction(stats.live) +
         rounded(static_cast<double>(stats.archivedEntriesTraversed) *
                 kArchivedEntryReadMicros);
}

TimeMicros SimCosts::apply(uint64_t keys) const {
  return rounded(static_cast<double>(keys) * config_->applyMicrosPerEntry);
}

TimeMicros SimCosts::replay(const core::ReplayStats& stats) const {
  // Truncated, not rounded, unlike the snapshot path's charges.
  return static_cast<TimeMicros>(
      config_->applyMicrosPerEntry *
          static_cast<double>(stats.baseStateKeys + stats.replayedKeys) +
      config_->compactionMicrosPerEntry *
          static_cast<double>(stats.diffTotals.entriesTraversed) +
      config_->indexProbeMicros *
          static_cast<double>(stats.diffTotals.indexSeeks +
                              stats.diffTotals.keysExamined));
}

bool SimCosts::heapExhausted(uint64_t dataBytes, uint64_t logBytes) {
  if (!heap_) return false;
  const bool wasOut = heap_->isOutOfMemory();
  // JVM object bloat on the raw index bytes, over the process baseline.
  const double data =
      static_cast<double>(dataBytes) * config_->jvmOverheadFactor;
  heap_->setLiveBytes(config_->baselineHeapBytes +
                      static_cast<uint64_t>(data) + logBytes);
  return !wasOut && heap_->isOutOfMemory();
}

double SimCosts::gcSlowdown() const {
  return heap_ ? heap_->gcSlowdownFactor() : 1.0;
}

}  // namespace retro::kv
