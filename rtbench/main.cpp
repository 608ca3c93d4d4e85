// rtbench: the repository's benchmark of the realtime stack.  A run
// assembles a kv::RealtimeKvCluster, drives one workload from one seed,
// checks every answer and prints its metrics; the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   rtbench --workload write-retro --seed 7 --seconds 10 --trace 0
//   rtbench --selftest
//   rtbench --list-metrics
//
// --trace 0 reports the end-to-end metrics from an untraced run.
// --trace 1 reports the per-layer metrics: an untraced reference phase,
// then a traced phase with the causality trace and the snapshot capture
// observer on.  NOTES.md maps each layer metric to the end-to-end metric
// it should move.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster_run.hpp"
#include "direct_timing.hpp"
#include "stats.hpp"
#include "trace_analysis.hpp"

namespace rtbench {

int runSelfTests();

namespace {

namespace kv = retro::kv;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "ops/s"},
    {"put_p50_us", "us"},      {"put_p99_us", "us"},
    {"get_p50_us", "us"},      {"get_p99_us", "us"},
    {"snapshot_p50_ms", "ms"}, {"query_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.late_us.p50", "us"},
    {"gen.late_us.p99", "us"},
    {"client.call_us.p50", "us"},
    {"client.retries", "count"},
    {"client.timeouts", "count"},
    {"runtime.hop_us.p50", "us"},
    {"runtime.hop_us.p99", "us"},
    {"runtime.msgs_per_op", "ratio"},
    {"runtime.msgs_per_drain", "ratio"},
    {"udp.datagrams_per_op", "ratio"},
    {"udp.acks_per_data", "ratio"},
    {"udp.retransmit_ratio", "ratio"},
    {"udp.dedup_hits", "count"},
    {"udp.backlogged", "count"},
    {"udp.exhausted", "count"},
    {"server.put_us.p50", "us"},
    {"server.put_us.p99", "us"},
    {"server.get_us.p50", "us"},
    {"server.ops", "count"},
    {"snapshot.capture_ms.p50", "ms"},
    {"snapshot.finish_ms.p50", "ms"},
    {"storage.state_copy_ms", "ms"},
    {"storage.cleaner_runs", "count"},
    {"log.append_ns.p50", "ns"},
    {"log.wal_append_ns.p50", "ns"},
    {"log.diff_entries_per_snapshot", "count"},
    {"log.diff_keys_per_entry", "ratio"},
    {"log.window_entries", "count"},
    {"log.window_mb", "MB"},
    {"log.trimmed", "count"},
    {"query.eval_ms.p50", "ms"},
    {"query.base_state_keys", "count"},
    {"query.replayed_keys", "count"},
    {"admin.snapshot_retries", "count"},
    {"admin.partial_snapshots", "count"},
    {"sim.executor_modelled_ms", "ms"},
    {"sim.disk_mb", "MB"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
};

constexpr double kWarmupSeconds = 1.0;
/// Set-up is timed this many times per run and reported as the median;
/// the cluster set up last is the one measured.
constexpr int kSetupRepeats = 3;
/// The causality trace keeps every event, about 8 per put: at closed-loop
/// rates that is tens of MB a second, so the traced window is capped.
constexpr double kTracedClosedLoopSeconds = 2.0;

using Values = std::map<std::string, double>;

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Harness& h) {
    attempted += h.attempted();
    failed += h.failed();
    for (std::string& e : h.errors()) errors.push_back(std::move(e));
  }
};

double peakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kb = std::nan("");
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

template <class F>
double sumServers(kv::RealtimeKvCluster& c, F f) {
  double total = 0;
  for (size_t i = 0; i < c.serverCount(); ++i) {
    total += static_cast<double>(f(c.server(i)));
  }
  return total;
}

void printHeader(const Workload& w, uint64_t seed, double seconds, int trace,
                 const Harness& h) {
  std::printf("rtbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d stream=%016" PRIx64 "\n",
              w.name, seed, seconds, trace, h.streamHash());
}

void printTiming(const char* what, std::vector<double> v, const char* unit) {
  const size_t n = v.size();
  const double p50 = percentile(v, 50);
  const double p99 = percentile(v, 99);
  std::printf("  %-10s n=%-8zu p50=%.3f %s  p99=%.3f %s\n", what, n, p50, unit,
              p99, unit);
}

int emit(const Outcome& o, const Values& values,
         std::span<const MetricDef> defs) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "rtbench: metric %s was not measured\n", d.name);
      return 2;
    }
  }
  for (size_t i = 0; i < o.errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "rtbench: wrong answer: %s\n", o.errors[i].c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              o.errors.empty() ? "true" : "false", o.attempted, o.failed);
  const char* sep = "";
  for (const MetricDef& d : defs) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, d.name,
                values.at(d.name), d.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return o.errors.empty() ? 0 : 1;
}

int runEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  std::vector<double> setups;
  for (int k = 1; k < kSetupRepeats; ++k) {
    Harness unmeasured(w, seed, /*traced=*/false);
    setups.push_back(unmeasured.setUp());
  }
  Harness h(w, seed, /*traced=*/false);
  setups.push_back(h.setUp());
  h.run(kWarmupSeconds, seconds);
  printHeader(w, seed, seconds, 0, h);

  Outcome outcome;
  outcome.add(h);
  std::vector<double> snapshots = h.adminLatenciesMs(false);
  std::vector<double> queries = h.adminLatenciesMs(true);
  printTiming("put", h.latenciesUs(OpKind::kPut), "us");
  printTiming("get", h.latenciesUs(OpKind::kGet), "us");
  printTiming("snapshot", snapshots, "ms");
  printTiming("query", queries, "ms");
  printTiming("setup", setups, "s");
  std::printf("  attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              outcome.attempted, outcome.failed);

  // Each foreground figure is the median of its values over the slices.
  std::map<std::string, std::vector<double>> sliced;
  for (size_t k = 0; k < h.slices(); ++k) {
    std::vector<double> put = h.latenciesUs(OpKind::kPut, k);
    std::vector<double> get = h.latenciesUs(OpKind::kGet, k);
    sliced["ops_per_s"].push_back(
        static_cast<double>(h.completedInSlice(k)) / h.sliceSeconds());
    sliced["put_p50_us"].push_back(percentile(put, 50));
    sliced["put_p99_us"].push_back(percentile(put, 99));
    sliced["get_p50_us"].push_back(percentile(get, 50));
    sliced["get_p99_us"].push_back(percentile(get, 99));
  }
  Values v;
  for (auto& [name, values] : sliced) {
    std::printf("  %-10s by slice:", name.c_str());
    for (double x : values) std::printf(" %.4g", x);
    std::printf("\n");
    std::erase_if(values, [](double x) { return std::isnan(x); });
    v[name] = median(std::move(values));
  }
  v["setup_s"] = median(setups);
  v["snapshot_p50_ms"] = percentile(snapshots, 50);
  v["query_p50_ms"] = percentile(queries, 50);
  v["peak_rss_mb"] = peakRssMb();
  return emit(outcome, v, kEndToEnd);
}

int runPerLayer(const Workload& w, uint64_t seed, double seconds) {
  Outcome outcome;
  const double phase = std::max(1.0, seconds / 2);
  // Untraced reference: the put median trace.overhead_pct compares with.
  double referencePutP50 = 0;
  {
    Harness reference(w, seed, /*traced=*/false);
    reference.setUp();
    reference.run(kWarmupSeconds, phase);
    std::vector<double> put = reference.latenciesUs(OpKind::kPut);
    referencePutP50 = percentile(put, 50);
    outcome.add(reference);
  }
  Harness h(w, seed, /*traced=*/true);
  h.setUp();
  h.run(kWarmupSeconds,
        w.openLoop ? phase : std::min(phase, kTracedClosedLoopSeconds));
  outcome.add(h);
  printHeader(w, seed, seconds, 1, h);

  TraceSummary trace = analyzeTrace(h);
  if (!trace.error.empty()) {
    outcome.errors.push_back("the trace does not match the calls: " +
                             trace.error);
  }
  kv::RealtimeKvCluster& c = h.cluster();
  Values v;

  std::vector<double> late = h.generatorLateUs();
  v["gen.late_us.p50"] = percentile(late, 50);
  v["gen.late_us.p99"] = percentile(late, 99);
  std::vector<double> call = h.callUs();
  v["client.call_us.p50"] = percentile(call, 50);
  double retries = 0;
  double timeouts = 0;
  for (size_t i = 0; i < c.clientCount(); ++i) {
    retries += static_cast<double>(c.client(i).opsRetried());
    timeouts += static_cast<double>(c.client(i).opsTimedOut());
  }
  v["client.retries"] = retries;
  v["client.timeouts"] = timeouts + static_cast<double>(h.unfinished());

  v["runtime.hop_us.p50"] = percentile(trace.hopUs, 50);
  v["runtime.hop_us.p99"] = percentile(trace.hopUs, 99);
  const double ops = std::max(1.0, static_cast<double>(h.opsCompleted()));
  v["runtime.msgs_per_op"] =
      static_cast<double>(c.context().messagesSent()) / ops;
  v["runtime.msgs_per_drain"] =
      static_cast<double>(c.context().messagesDelivered()) /
      std::max(1.0, static_cast<double>(c.context().drains()));

  double datagrams = 0, acks = 0, retransmits = 0;
  double dedup = 0, backlogged = 0, exhausted = 0;
  if (const auto* udp = c.udpTransport()) {
    const retro::Counters k = udp->counters();
    datagrams = static_cast<double>(k.get("udp.datagrams_sent"));
    acks = static_cast<double>(k.get("udp.acks_sent"));
    retransmits = static_cast<double>(k.get("udp.retransmits"));
    dedup = static_cast<double>(k.get("udp.dedup_hits"));
    backlogged = static_cast<double>(k.get("udp.backlogged"));
    exhausted = static_cast<double>(k.get("udp.exhausted"));
  }
  const double dataDatagrams = std::max(1.0, datagrams - acks);
  v["udp.datagrams_per_op"] = datagrams / ops;
  v["udp.acks_per_data"] = acks / dataDatagrams;
  v["udp.retransmit_ratio"] = retransmits / dataDatagrams;
  v["udp.dedup_hits"] = dedup;
  v["udp.backlogged"] = backlogged;
  v["udp.exhausted"] = exhausted;

  v["server.put_us.p50"] = percentile(trace.serverPutUs, 50);
  v["server.put_us.p99"] = percentile(trace.serverPutUs, 99);
  v["server.get_us.p50"] = percentile(trace.serverGetUs, 50);
  v["server.ops"] = sumServers(c, [](kv::VoldemortServer& s) {
    return s.putsProcessed() + s.getsProcessed();
  });

  // Snapshot stages, cut where the last server captured its state.
  std::unordered_map<uint64_t, int64_t> lastCapture;
  for (const auto& perServer : h.captures()) {
    for (const auto& [id, at] : perServer) {
      int64_t& t = lastCapture[id];
      t = std::max(t, at);
    }
  }
  std::vector<double> captureMs, finishMs;
  for (const AdminRecord& r : h.adminRecords()) {
    if (r.isQuery || !r.ok) continue;
    const auto it = lastCapture.find(r.snapshotId);
    if (it == lastCapture.end()) continue;
    captureMs.push_back(static_cast<double>(it->second - r.issueNs) / 1e6);
    finishMs.push_back(static_cast<double>(r.doneNs - it->second) / 1e6);
  }
  v["snapshot.capture_ms.p50"] = percentile(captureMs, 50);
  v["snapshot.finish_ms.p50"] = percentile(finishMs, 50);

  v["storage.state_copy_ms"] = timeStateCopyMs(c);
  v["storage.cleaner_runs"] = sumServers(
      c, [](kv::VoldemortServer& s) { return s.bdb().cleanerRuns(); });

  const AppendTimings appends = timeLogAppends(w, seed);
  v["log.append_ns.p50"] = appends.appendNs;
  v["log.wal_append_ns.p50"] = appends.walAppendNs;
  // Snapshot diffs only: the server folds query replays into its totals.
  const double diffEntries = sumServers(c, [](kv::VoldemortServer& s) {
    return s.diffTotals().entriesTraversed -
           s.queryReplayTotals().diffTotals.entriesTraversed;
  });
  const double diffKeys = sumServers(c, [](kv::VoldemortServer& s) {
    return s.diffTotals().keysInDiff -
           s.queryReplayTotals().diffTotals.keysInDiff;
  });
  const double snapshots = sumServers(
      c, [](kv::VoldemortServer& s) { return s.snapshotsCompleted(); });
  v["log.diff_entries_per_snapshot"] = diffEntries / std::max(1.0, snapshots);
  v["log.diff_keys_per_entry"] = diffKeys / std::max(1.0, diffEntries);
  const auto storeLog = [](kv::VoldemortServer& s) -> retro::log::WindowLog& {
    return s.retroscope().getLog(kv::VoldemortServer::kStoreLog);
  };
  v["log.window_entries"] = sumServers(
      c, [&](kv::VoldemortServer& s) { return storeLog(s).entryCount(); });
  v["log.window_mb"] =
      sumServers(c, [&](kv::VoldemortServer& s) {
        return storeLog(s).accountedBytes();
      }) /
      1e6;
  v["log.trimmed"] = sumServers(
      c, [&](kv::VoldemortServer& s) { return storeLog(s).trimmedCount(); });

  v["query.eval_ms.p50"] = percentile(trace.queryEvalMs, 50);
  const double served = std::max(
      1.0, sumServers(c, [](kv::VoldemortServer& s) { return s.queriesServed(); }));
  v["query.base_state_keys"] =
      sumServers(c, [](kv::VoldemortServer& s) {
        return s.queryReplayTotals().baseStateKeys;
      }) /
      served;
  v["query.replayed_keys"] =
      sumServers(c, [](kv::VoldemortServer& s) {
        return s.queryReplayTotals().replayedKeys;
      }) /
      served;

  v["admin.snapshot_retries"] =
      static_cast<double>(c.admin().counters().get("snapshot.retries"));
  v["admin.partial_snapshots"] = static_cast<double>(
      std::count_if(h.adminRecords().begin(), h.adminRecords().end(),
                    [](const AdminRecord& r) { return r.partial; }));
  v["sim.executor_modelled_ms"] =
      sumServers(c, [](kv::VoldemortServer& s) {
        return s.executor().totalBusyMicros();
      }) /
      1e3;
  v["sim.disk_mb"] = sumServers(c, [](kv::VoldemortServer& s) {
                       return s.disk().bytesRead() + s.disk().bytesWritten();
                     }) /
                     1e6;

  std::vector<double> tracedPut = h.latenciesUs(OpKind::kPut);
  const double tracedPutP50 = percentile(tracedPut, 50);
  v["trace.overhead_pct"] =
      (tracedPutP50 - referencePutP50) / referencePutP50 * 100;
  v["trace.coverage"] = coverage(trace.putPaths);

  printTiming("put", tracedPut, "us");
  printTiming("hop", trace.hopUs, "us");
  printTiming("server.put", trace.serverPutUs, "us");
  printTiming("query.eval", trace.queryEvalMs, "ms");
  const PutPath typical = typicalPut(trace.putPaths);
  std::printf("  typical put (mean of the p45-p55 band of %zu traced puts):\n",
              trace.putPaths.size());
  const auto segment = [&typical](const char* name, double us) {
    std::printf("    %-10s %9.3f us  %5.1f %%\n", name, us,
                100 * us / typical.total);
  };
  segment("gen", typical.gen);
  segment("post", typical.post);
  segment("call", typical.call);
  segment("req.hop", typical.requestHop);
  segment("server", typical.server);
  segment("reply.hop", typical.replyHop);
  segment("complete", typical.complete);
  segment("total", typical.total);
  segment("uncovered", typical.total - typical.covered);
  std::printf("  untraced put p50=%.3f us  attempted=%" PRIu64
              " failed=%" PRIu64 "\n",
              referencePutP50, outcome.attempted, outcome.failed);
  return emit(outcome, v, kPerLayer);
}

int usage() {
  std::fprintf(stderr,
               "usage: rtbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       rtbench --selftest | --list-metrics\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void listMetrics() {
  for (const MetricDef& d : kEndToEnd) {
    std::printf("end-to-end %s %s\n", d.name, d.unit);
  }
  for (const MetricDef& d : kPerLayer) {
    std::printf("per-layer %s %s\n", d.name, d.unit);
  }
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) {
  using namespace rtbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  long trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return runSelfTests();
    if (arg == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = std::strtol(value, &end, 10);
    } else {
      return usage();
    }
    if (end != nullptr && (end == value || *end != '\0')) return usage();
  }
  const Workload* w = findWorkload(workload);
  if (w == nullptr || !(seconds > 0 && seconds <= 120) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  return trace == 1 ? runPerLayer(*w, seed, seconds)
                    : runEndToEnd(*w, seed, seconds);
}
