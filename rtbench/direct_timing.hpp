// Layer costs the benchmark times directly, outside the running cluster:
// the window-log and WAL appends each put makes, and the state copy a
// full snapshot makes at capture.
#pragma once

#include "cluster_run.hpp"

namespace rtbench {

struct AppendTimings {
  double appendNs = 0;     ///< median Retroscope::appendToLog, per call
  double walAppendNs = 0;  ///< median WalJournal::append, per call
};

/// Replays the workload's generated puts (lane 0 of its seed) through a
/// Retroscope with the cluster's window-log bounds and through a
/// WalJournal, timing both in batches.
AppendTimings timeLogAppends(const Workload& w, uint64_t seed);

/// Median time to copy one server's BdbStore::data().  Call after the
/// cluster has stopped.
double timeStateCopyMs(retro::kv::RealtimeKvCluster& cluster);

}  // namespace rtbench
