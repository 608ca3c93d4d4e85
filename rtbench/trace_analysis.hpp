// Reads a traced run's causality trace against the benchmark's own call
// records.  The trace holds, per node, every HLC send and receive tick
// with its context time; the benchmark knows which calls each client and
// the admin made, in order.  Together they give every message's hop, each
// server's handling time, and the blocking path of every put.
#pragma once

#include <string>
#include <vector>

#include "cluster_run.hpp"

namespace rtbench {

/// The blocking path of one measured put in microseconds, cut at the
/// trace events of the replica reply that completed it.  The segments
/// sum to `total`; `covered` is the part of the put that lies inside the
/// spans actually recorded for it (benchmark call records and trace
/// events of every replica leg), so `total - covered` is time no span
/// explains.
struct PutPath {
  double gen = 0;         ///< due time -> generator post (open loop)
  double post = 0;        ///< post -> the client thread takes the op
  double call = 0;        ///< call entry -> request send to that replica
  double requestHop = 0;  ///< send -> server receive tick
  double server = 0;      ///< receive tick -> reply send
  double replyHop = 0;    ///< reply send -> client receive tick
  double complete = 0;    ///< client receive tick -> callback
  double total = 0;       ///< the put's latency
  double covered = 0;     ///< time inside recorded spans
};

struct TraceSummary {
  std::vector<double> hopUs;        ///< every message sent in the window
  std::vector<double> serverPutUs;  ///< receive tick -> reply send
  std::vector<double> serverGetUs;
  std::vector<double> queryEvalMs;  ///< per server and query
  std::vector<PutPath> putPaths;
  std::string error;  ///< set when the trace does not line up with the calls
};

/// Call after run(): the cluster has stopped, so the trace is complete.
TraceSummary analyzeTrace(Harness& harness);

/// The typical put: every field averaged over the puts whose latency lies
/// between the 45th and 55th percentile.
PutPath typicalPut(const std::vector<PutPath>& paths);

/// The share of the typical put's latency that lies inside recorded spans.
double coverage(const std::vector<PutPath>& paths);

}  // namespace rtbench
