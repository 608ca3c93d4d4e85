// One benchmark phase against a live kv::RealtimeKvCluster: build the
// cluster every workload shares, drive it from the seeded load through a
// warm-up and a measured window, check every answer, and keep the raw
// timings the metrics are computed from.  Node state is read only after
// run() has stopped the cluster.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/realtime_cluster.hpp"
#include "opgen.hpp"

namespace rtbench {

inline constexpr uint32_t kKeys = 100'000;
inline constexpr size_t kServers = 3;
inline constexpr size_t kClients = 2;
inline constexpr size_t kReplicas = 2;
inline constexpr size_t kLanesPerClient = 2;
/// The measured window is cut into slices this long (one write-retro
/// snapshot period); an end-to-end figure is the median of its per-slice
/// values, so one disturbed stretch of a run does not set it.
inline constexpr int64_t kSliceNs = 2'000'000'000;

/// Steady-clock nanoseconds (CLOCK_MONOTONIC, the runtime's time base).
int64_t nowNs();

struct Workload {
  const char* name;
  bool openLoop;
  retro::kv::TransportKind transport;
  OpMix mix;
  double ratePerSec;  ///< offered load; open loop only
};

/// The benchmark's workloads; NOTES.md says why each exists.
const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// The cluster every workload runs on (NOTES.md, "Common set-up").
retro::kv::RealtimeClusterConfig clusterConfig(const Workload& w,
                                               uint64_t seed);

/// One foreground op.  Times are nowNs() values.
struct OpRecord {
  int64_t startNs = 0;    ///< latency origin: due time (open loop) or call
  int64_t postNs = 0;     ///< open loop: when the generator posted the op
  int64_t enterNs = 0;    ///< when the client thread began the call
  int64_t callEndNs = 0;  ///< when put()/get() returned
  int64_t doneNs = 0;     ///< callback entry; 0 = never completed
  OpKind kind = OpKind::kGet;
  bool ok = false;
  bool measured = false;  ///< started inside the measured window
};

/// One snapshotPast or doQuery round, issued on the admin thread.
struct AdminRecord {
  bool isQuery = false;
  bool ok = false;       ///< snapshot ended kComplete / query returned OK
  bool partial = false;  ///< snapshot ended kPartial
  int64_t issueNs = 0;
  int64_t doneNs = 0;  ///< callback entry; 0 = never answered
  retro::core::SnapshotId snapshotId = 0;
};

class Harness {
 public:
  /// `traced` turns on the causality trace, the snapshot capture observer
  /// and the per-op call records.
  Harness(const Workload& workload, uint64_t seed, bool traced);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Construct, preload and start the cluster; returns the seconds that
  /// took.
  double setUp();

  /// Warm up, measure for `seconds`, drain the foreground and the
  /// snapshot/query rounds, then stop the cluster.  Closed loops take no
  /// snapshots under load: they time theirs one at a time on the idle,
  /// freshly loaded cluster before the warm-up.
  void run(double warmupSeconds, double seconds);

  retro::kv::RealtimeKvCluster& cluster() { return *cluster_; }
  uint64_t streamHash() const { return streamHash_; }

  // --- results; valid after run() ---
  int64_t windowStartNs() const { return windowStartNs_; }
  int64_t windowEndNs() const { return windowEndNs_; }
  size_t slices() const { return slices_; }
  double sliceSeconds() const { return static_cast<double>(sliceNs_) / 1e9; }
  /// Ops that completed OK inside slice `k` of the measured window.
  uint64_t completedInSlice(size_t k) const;
  /// Every op callback, warm-up included.
  uint64_t opsCompleted() const;
  /// Measured ops that never completed.
  uint64_t unfinished() const;
  /// Measured ops plus admin rounds, and how many of them failed: an
  /// error, no answer, an empty read, a snapshot that did not end
  /// kComplete, a query that did not return OK.
  uint64_t attempted() const;
  uint64_t failed() const;
  /// Wrong answers: a read of a value never written to its key, a
  /// snapshot or query that does not count every replica of every key.
  std::vector<std::string> errors() const;

  /// Latency of every measured op of `kind` that succeeded.
  std::vector<double> latenciesUs(OpKind kind) const;
  /// The same, for the ops that started in slice `k`.
  std::vector<double> latenciesUs(OpKind kind, size_t k) const;
  /// Issue -> callback of the successful snapshot (or query) rounds.
  std::vector<double> adminLatenciesMs(bool queries) const;
  const std::vector<AdminRecord>& adminRecords() const { return admin_; }

  // --- traced runs only ---
  /// Each client's calls in the order its thread made them.
  std::vector<std::vector<const OpRecord*>> callsByClient() const;
  /// Time inside put()/get() of the measured ops.
  std::vector<double> callUs() const;
  /// The load generator's own delay: open loop, post time - due time;
  /// closed loop, a lane's callback -> its next call.
  std::vector<double> generatorLateUs() const;
  /// Per server: (snapshot id, capture-observer time).
  const std::vector<std::vector<std::pair<uint64_t, int64_t>>>& captures()
      const {
    return captures_;
  }
  /// A causality-trace time (context micros) on the nowNs() scale.
  int64_t traceNs(retro::TimeMicros micros) const {
    return traceBaseNs_ + micros * 1000 + 500;
  }

 private:
  struct Lane {
    size_t id = 0;
    size_t client = 0;
    std::vector<Op> ops;  ///< replayed cyclically
    uint64_t next = 0;
    int64_t lastDoneNs = 0;
    bool idle = false;
  };
  struct ClientState {
    std::vector<std::vector<double>> putUs, getUs;  ///< per slice
    std::vector<uint64_t> completedInSlice;
    uint64_t attempted = 0, failed = 0, completed = 0;
    std::vector<std::string> errors;
    std::vector<OpRecord> records;    ///< closed loop, traced: every call
    std::vector<uint32_t> callOrder;  ///< open loop, traced: op indices
    std::vector<double> gapUs;        ///< closed loop, traced
  };
  struct SnapshotCheck {
    std::atomic<uint64_t> keys{0};
    std::atomic<int> pending{0};
  };

  bool inWindow(int64_t t) const {
    return t >= windowStartNs_ && t < windowEndNs_;
  }
  size_t sliceOf(int64_t t) const {
    return std::min(slices_ - 1,
                    static_cast<size_t>((t - windowStartNs_) / sliceNs_));
  }
  void calibrateTraceBase();
  void runQuietRounds();
  void runClosedLoop();
  void runOpenLoop(int64_t t0);
  void issue(Lane& lane);
  void completeClosed(Lane& lane, OpKind kind, int64_t start, int64_t done,
                      size_t rec, bool ok);
  void runOpenOp(uint32_t i, size_t client);
  void completeOpen(uint32_t i, size_t client, int64_t done, bool ok);
  void account(ClientState& cs, OpKind kind, int64_t start, int64_t done,
               bool ok);
  bool checkRead(size_t client, uint32_t key, bool ok,
                 const retro::OptValue& value);
  void postAdminRound(bool query);
  void snapshotRound();
  void queryRound();
  void inspectSnapshot(size_t slot, retro::core::SnapshotId id);
  void waitAdminIdle();

  const Workload& workload_;
  const uint64_t seed_;
  const bool traced_;
  const ValueCodec codec_;
  std::vector<retro::Key> keys_;
  uint64_t streamHash_ = 0;
  int64_t windowStartNs_ = 0;
  int64_t windowEndNs_ = 0;
  size_t slices_ = 1;
  int64_t sliceNs_ = kSliceNs;
  int64_t traceBaseNs_ = 0;

  std::vector<Lane> lanes_;                // closed loop
  std::vector<int64_t> arrivals_;          // open loop
  std::vector<Op> ops_;                    // open loop, one per arrival
  std::vector<OpRecord> records_;          // open loop, one per arrival
  std::vector<ClientState> clientStates_;  // each confined to its client
  std::vector<AdminRecord> admin_;         // confined to the admin thread
  std::vector<std::string> adminErrors_;   // confined to the admin thread
  std::unique_ptr<SnapshotCheck[]> checks_;
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> captures_;

  std::atomic<bool> stop_{false};
  std::atomic<size_t> idleLanes_{0};
  std::atomic<uint64_t> openDone_{0};
  std::atomic<int> adminPending_{0};

  std::unique_ptr<retro::kv::RealtimeKvCluster> cluster_;
};

}  // namespace rtbench
