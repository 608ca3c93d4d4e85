// Realtime KV degraded-mode bench: genuine wall-clock, genuine threads.
//
// Closed-loop replicated puts on a RealtimeKvCluster, pushed through the
// chaos plane at 0, 1 and 5 % message drop rates, measure what graceful
// degradation costs.  The clean foreground path over both wires is
// measured, with spreads, by rtbench (`read-mostly`, `udp-mixed`).
//
// Emits BENCH_realtime_kv.json (schema v1).  RETRO_BENCH_SCALE shrinks
// op counts for smoke runs; absolute numbers are host-dependent by
// design (this bench is NOT simulator-calibrated).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "runtime/deadline.hpp"

namespace retro::bench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SweepPoint {
  double opsPerSec = 0;
  double p50Micros = 0;
  double p99Micros = 0;
};

double percentileOf(std::vector<uint32_t>& lat, double q) {
  if (lat.empty()) return 0;
  const size_t idx = std::min(lat.size() - 1,
                              static_cast<size_t>(q * (lat.size() - 1)));
  std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
  return static_cast<double>(lat[idx]);
}

/// Degraded-mode sweep: a closed-loop replicated workload pushed
/// through the runtime::FaultfulContext chaos plane at a fixed message
/// drop rate, with the retry-hardened client config (deadline + capped
/// backoff, runtime/retry.hpp).  Measures what graceful degradation
/// costs: every op must still resolve, throughput must not collapse,
/// and the retry machinery shows up as a fattening p99 tail.
SweepPoint runDegradedSweep(double dropProbability, int64_t opsPerClient) {
  constexpr int kClients = 2;
  kv::RealtimeClusterConfig cfg;
  cfg.servers = 3;
  cfg.clients = kClients;
  cfg.seed = 42;
  cfg.client.replicas = 2;
  cfg.client.requiredWrites = 1;  // degrade gracefully: first ack wins
  cfg.client.opTimeoutMicros = 10'000;
  cfg.client.maxRetries = 5;
  cfg.client.retryBackoffBaseMicros = 1'000;
  cfg.client.retryBackoffCapMicros = 8'000;
  cfg.enableFaultPlane = true;
  cfg.faultPlane.seed = 42;
  cfg.faultPlane.dropProbability = dropProbability;
  kv::RealtimeKvCluster cluster(cfg);

  std::atomic<int64_t> done{0};
  std::vector<std::vector<uint32_t>> latencies(kClients);
  const int64_t total = opsPerClient * kClients;

  std::function<void(int, int64_t)> pump = [&](int c, int64_t i) {
    if (i >= opsPerClient) return;
    const Key key = kv::RealtimeKvCluster::keyOf(
        static_cast<uint64_t>(c) * 100'000 + i % 256);
    cluster.client(c).put(key, Value(64, 'v'),
                          [&, c, i](bool ok, TimeMicros latency) {
                            if (ok) {
                              latencies[c].push_back(
                                  static_cast<uint32_t>(latency));
                            }
                            done.fetch_add(1, std::memory_order_acq_rel);
                            pump(c, i + 1);
                          });
  };

  cluster.start();
  const auto start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    cluster.nodeContext().post(cluster.clientId(c), [&pump, c] { pump(c, 0); });
  }
  const bool finished = runtime::waitForCondition(
      [&] { return done.load(std::memory_order_acquire) >= total; });
  const double elapsed = secondsSince(start);
  cluster.stop();
  if (!finished) {
    std::fprintf(stderr, "degraded sweep (drop=%.2f) stalled: %lld/%lld ops\n",
                 dropProbability, static_cast<long long>(done.load()),
                 static_cast<long long>(total));
  }

  std::vector<uint32_t> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  SweepPoint point;
  point.opsPerSec = finished
                        ? static_cast<double>(total) / std::max(elapsed, 1e-9)
                        : 0;
  point.p50Micros = percentileOf(all, 0.50);
  point.p99Micros = percentileOf(all, 0.99);
  return point;
}

void addPoint(BenchReport& report, const std::string& prefix,
              const SweepPoint& p) {
  report.addMetric(prefix + ".ops_per_sec", p.opsPerSec);
  report.addMetric(prefix + ".p50_latency_micros", p.p50Micros);
  report.addMetric(prefix + ".p99_latency_micros", p.p99Micros);
}

int run() {
  BenchReport report("realtime_kv");
  ShapeChecker shape(report);

  report.setMeta("workload",
                 "closed-loop replicated puts, 3 servers, replicas=2, "
                 "2 clients, chaos-plane drops");

  const int64_t degradedOps = scaled(1'500);
  const double dropRates[] = {0.0, 0.01, 0.05};
  const char* dropLabels[] = {"d0", "d1", "d5"};
  std::printf(
      "== degraded mode: chaos-plane drop sweep, %lld puts/client ==\n",
      static_cast<long long>(degradedOps));
  std::vector<SweepPoint> degradedPoints;
  for (size_t i = 0; i < 3; ++i) {
    degradedPoints.push_back(runDegradedSweep(dropRates[i], degradedOps));
    const auto& p = degradedPoints.back();
    std::printf("  drop=%.0f%%  %10.0f ops/s  p50=%.0fus  p99=%.0fus\n",
                dropRates[i] * 100, p.opsPerSec, p.p50Micros, p.p99Micros);
    addPoint(report, std::string("degraded.") + dropLabels[i], p);
  }

  // --- shape checks -------------------------------------------------
  // Graceful degradation: under a 5% drop rate the retry machinery must
  // keep every op resolving (no stall => nonzero throughput), must not
  // collapse throughput, and the deadline+backoff resends show up where
  // they should — in the p99 tail, not the median.
  const auto& clean = degradedPoints[0];
  const auto& lossy = degradedPoints[2];
  shape.check(clean.opsPerSec > 0 && degradedPoints[1].opsPerSec > 0 &&
                  lossy.opsPerSec > 0,
              "degraded: every drop-rate sweep completed all ops");
  shape.check(lossy.opsPerSec > 0.08 * clean.opsPerSec,
              "degraded: no throughput collapse at 5% drop (>= 0.08x clean; "
              "timeout stalls cost throughput, collapse would cost more)");
  shape.check(lossy.p99Micros >= clean.p99Micros,
              "degraded: p99 tail reflects retry cost at 5% drop "
              "(>= clean p99)");
  shape.check(lossy.p50Micros <= lossy.p99Micros,
              "degraded: latency percentiles ordered under drops");

  return report.finish();
}

}  // namespace
}  // namespace retro::bench

int main() { return retro::bench::run(); }
