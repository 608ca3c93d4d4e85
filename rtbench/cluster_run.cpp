#include "cluster_run.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <functional>
#include <thread>

namespace rtbench {

namespace kv = retro::kv;
namespace core = retro::core;
namespace runtime = retro::runtime;

namespace {

/// Each closed-loop lane replays a fixed seeded stream of this many ops.
constexpr size_t kLaneOps = size_t{1} << 18;
/// write-retro: a snapshotPast(2000) every 2 s from 1 s into the window,
/// and a temporal query 0.5 s after each, so every slice holds one of each.
constexpr int64_t kFirstRoundNs = 1'000'000'000;
constexpr int64_t kRoundPeriodNs = kSliceNs;
constexpr int64_t kQueryLagNs = 500'000'000;
constexpr int64_t kSnapshotDepthMillis = 2000;
/// The query: COUNT OVER [now - 1500, now - 500] STEP 100, 11 points.
constexpr int64_t kQueryFromMillis = 1500;
constexpr int64_t kQueryToMillis = 500;
constexpr size_t kQuerySteps = 11;
/// Closed loops time this many snapshot and query rounds, one at a time,
/// on the idle cluster before the warm-up.
constexpr int kQuietRounds = 9;
constexpr size_t kMaxAdminRounds = 256;
/// How long stragglers may take to finish once the window has closed.
constexpr int64_t kDrainGraceNs = 10'000'000'000;
constexpr size_t kNoRecord = SIZE_MAX;

void sleepUntilNs(int64_t t) {
  const timespec ts{static_cast<time_t>(t / 1'000'000'000),
                    static_cast<long>(t % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The generator's wait for a due time: sleep until shortly before it,
/// then spin.  A timer wake-up alone lands about 10 us late on a
/// virtualised host, and by how much varies from run to run.
void waitForDueNs(int64_t t) {
  constexpr int64_t kSpinNs = 20'000;
  if (t - nowNs() > kSpinNs) sleepUntilNs(t - kSpinNs);
  while (nowNs() < t) {
  }
}

void waitUntil(const std::function<bool()>& done, int64_t deadlineNs) {
  while (!done() && nowNs() < deadlineNs) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

}  // namespace

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"read-mostly", false, kv::TransportKind::kInProcess, {0.10, false}, 0},
      {"write-retro", true, kv::TransportKind::kInProcess, {0.90, true},
       10'000},
      {"udp-mixed", false, kv::TransportKind::kUdpLoopback, {0.50, false}, 0},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

kv::RealtimeClusterConfig clusterConfig(const Workload& w, uint64_t seed) {
  kv::RealtimeClusterConfig cfg;
  cfg.servers = kServers;
  cfg.clients = kClients;
  cfg.seed = deriveSeed(seed, kSaltClusterSkew);
  cfg.client.replicas = kReplicas;
  cfg.client.requiredWrites = 2;
  cfg.client.requiredReads = 1;
  kv::ServerConfig& s = cfg.server;
  s.logConfig.maxAgeMillis = 5000;
  // Every modelled cost ServerConfig exposes is zero, so the numbers
  // measure compute.  The 500 us snapshot and 300 us query charges are
  // hard-coded in VoldemortServer::onMessage and stay.
  s.putServiceMicros = 0;
  s.getServiceMicros = 0;
  s.logAppendMicros = 0;
  s.copyCpuMicrosPerMB = 0;
  s.compactionMicrosPerEntry = 0;
  s.applyMicrosPerEntry = 0;
  s.indexProbeMicros = 0;
  s.integrity.checksumMicrosPerMB = 0;
  s.disk = {.readMBps = 1e12, .writeMBps = 1e12, .seekMicros = 0};
  cfg.transport = w.transport;
  return cfg;
}

Harness::Harness(const Workload& workload, uint64_t seed, bool traced)
    : workload_(workload),
      seed_(seed),
      traced_(traced),
      codec_(seed),
      clientStates_(kClients),
      checks_(std::make_unique<SnapshotCheck[]>(kMaxAdminRounds)) {
  keys_.reserve(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) {
    keys_.push_back(kv::RealtimeKvCluster::keyOf(i));
  }
  if (!workload.openLoop) {
    StreamHash hash;
    for (size_t l = 0; l < kClients * kLanesPerClient; ++l) {
      Lane lane;
      lane.id = l;
      lane.client = l / kLanesPerClient;
      lane.ops = makeOps(seed, l, kLaneOps, workload.mix, kKeys);
      hash.add(lane.ops);
      lanes_.push_back(std::move(lane));
    }
    streamHash_ = hash.value();
  }
}

Harness::~Harness() {
  // Stop the node threads before the state their callbacks touch goes.
  if (cluster_) cluster_->stop();
}

double Harness::setUp() {
  const int64_t start = nowNs();
  cluster_ = std::make_unique<kv::RealtimeKvCluster>(
      clusterConfig(workload_, seed_));
  if (traced_) {
    cluster_->enableCausalityTrace();
    captures_.assign(kServers, {});
    for (size_t s = 0; s < kServers; ++s) {
      cluster_->server(s).setSnapshotCaptureObserver(
          [this, s](core::SnapshotId id) {
            captures_[s].emplace_back(id, nowNs());
          });
    }
  }
  cluster_->preload(kKeys, kValueBytes);
  cluster_->start();
  return static_cast<double>(nowNs() - start) / 1e9;
}

void Harness::run(double warmupSeconds, double seconds) {
  calibrateTraceBase();
  if (!workload_.openLoop) runQuietRounds();
  // Leave the generator thread a moment to start before the first arrival.
  const int64_t t0 = nowNs() + 20'000'000;
  windowStartNs_ = t0 + static_cast<int64_t>(warmupSeconds * 1e9);
  windowEndNs_ = windowStartNs_ + static_cast<int64_t>(seconds * 1e9);
  slices_ = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds * 1e9 / kSliceNs)));
  sliceNs_ = (windowEndNs_ - windowStartNs_) / static_cast<int64_t>(slices_);
  for (ClientState& cs : clientStates_) {
    cs.putUs.assign(slices_, {});
    cs.getUs.assign(slices_, {});
    cs.completedInSlice.assign(slices_, 0);
  }
  if (workload_.openLoop) {
    runOpenLoop(t0);
  } else {
    runClosedLoop();
  }
  cluster_->stop();
}

void Harness::calibrateTraceBase() {
  // Context time is floor((steady - base) / 1 us); bracket base from both
  // sides over many reads.
  const runtime::RealtimeContext& ctx = cluster_->context();
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  for (int k = 0; k < 1000; ++k) {
    const int64_t before = nowNs();
    const int64_t micros = ctx.now();
    const int64_t after = nowNs();
    lo = std::max(lo, before - micros * 1000 - 999);
    hi = std::min(hi, after - micros * 1000);
  }
  traceBaseNs_ = lo + (hi - lo) / 2;
}

// --- closed loop ----------------------------------------------------------

void Harness::runQuietRounds() {
  // The window log is still empty, so each round costs the same: the
  // request hops, the modelled charge, the state copy and the store.
  for (int r = 0; r < kQuietRounds; ++r) {
    postAdminRound(false);
    waitAdminIdle();
    postAdminRound(true);
    waitAdminIdle();
  }
}

void Harness::runClosedLoop() {
  runtime::ExecutionContext& ctx = cluster_->nodeContext();
  for (Lane& lane : lanes_) {
    ctx.post(cluster_->clientId(lane.client), [this, &lane] { issue(lane); });
  }
  sleepUntilNs(windowEndNs_);
  stop_.store(true, std::memory_order_relaxed);
  waitUntil(
      [this] {
        return idleLanes_.load(std::memory_order_acquire) == lanes_.size();
      },
      nowNs() + kDrainGraceNs);
}

void Harness::issue(Lane& lane) {
  if (stop_.load(std::memory_order_relaxed)) {
    lane.idle = true;
    idleLanes_.fetch_add(1, std::memory_order_release);
    return;
  }
  ClientState& cs = clientStates_[lane.client];
  const uint64_t n = lane.next++;
  const Op& op = lane.ops[n % lane.ops.size()];
  const uint32_t key = op.key;
  const int64_t start = nowNs();
  size_t rec = kNoRecord;
  if (traced_) {
    if (lane.lastDoneNs > 0) {
      cs.gapUs.push_back(static_cast<double>(start - lane.lastDoneNs) / 1e3);
    }
    rec = cs.records.size();
    OpRecord r;
    r.startNs = start;
    r.enterNs = start;
    r.kind = op.kind;
    r.measured = inWindow(start);
    cs.records.push_back(r);
  }
  kv::VoldemortClient& client = cluster_->client(lane.client);
  if (op.kind == OpKind::kPut) {
    const uint64_t opId = (static_cast<uint64_t>(lane.id) << 40) | n;
    client.put(keys_[key], codec_.make(opId, key),
               [this, &lane, start, rec](bool ok, retro::TimeMicros) {
                 completeClosed(lane, OpKind::kPut, start, nowNs(), rec, ok);
               });
  } else {
    client.get(keys_[key], [this, &lane, start, rec, key](
                               bool ok, retro::TimeMicros,
                               retro::OptValue value) {
      const int64_t done = nowNs();
      completeClosed(lane, OpKind::kGet, start, done, rec,
                     checkRead(lane.client, key, ok, value));
    });
  }
  if (rec != kNoRecord) cs.records[rec].callEndNs = nowNs();
}

void Harness::completeClosed(Lane& lane, OpKind kind, int64_t start,
                             int64_t done, size_t rec, bool ok) {
  ClientState& cs = clientStates_[lane.client];
  if (rec != kNoRecord) {
    cs.records[rec].doneNs = done;
    cs.records[rec].ok = ok;
  }
  account(cs, kind, start, done, ok);
  lane.lastDoneNs = done;
  issue(lane);
}

// --- open loop ------------------------------------------------------------

void Harness::runOpenLoop(int64_t t0) {
  arrivals_ = makeArrivals(seed_, workload_.ratePerSec, windowEndNs_ - t0);
  ops_ = makeOps(seed_, 0, arrivals_.size(), workload_.mix, kKeys);
  records_.assign(arrivals_.size(), OpRecord{});
  StreamHash hash;
  hash.add(ops_);
  for (int64_t a : arrivals_) hash.add(static_cast<uint64_t>(a));
  streamHash_ = hash.value();

  enum class What : uint8_t { kOp, kSnapshot, kQuery };
  struct Event {
    int64_t at;
    uint32_t op;
    What what;
  };
  std::vector<Event> events;
  events.reserve(arrivals_.size() + 64);
  for (uint32_t i = 0; i < arrivals_.size(); ++i) {
    events.push_back({t0 + arrivals_[i], i, What::kOp});
  }
  const int64_t first =
      std::min(kFirstRoundNs, (windowEndNs_ - windowStartNs_) / 4);
  for (int64_t at = windowStartNs_ + first; at < windowEndNs_;
       at += kRoundPeriodNs) {
    events.push_back({at, 0, What::kSnapshot});
    if (at + kQueryLagNs < windowEndNs_) {
      events.push_back({at + kQueryLagNs, 0, What::kQuery});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });

  std::thread generator([this, &events] {
    // A plain sleep overshoots by the thread's timer slack (50 us by
    // default, about half a put); with 1 ns of slack the sleep ends
    // before the spin does.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    runtime::ExecutionContext& ctx = cluster_->nodeContext();
    for (const Event& e : events) {
      waitForDueNs(e.at);
      if (e.what != What::kOp) {
        postAdminRound(e.what == What::kQuery);
        continue;
      }
      const size_t client = e.op % kClients;
      OpRecord& r = records_[e.op];
      r.startNs = e.at;
      r.postNs = nowNs();
      ctx.post(cluster_->clientId(client),
               [this, i = e.op, client] { runOpenOp(i, client); });
    }
  });
  generator.join();
  waitUntil(
      [this] {
        return openDone_.load(std::memory_order_acquire) == arrivals_.size() &&
               adminPending_.load(std::memory_order_acquire) == 0;
      },
      nowNs() + kDrainGraceNs);
}

void Harness::runOpenOp(uint32_t i, size_t client) {
  OpRecord& r = records_[i];
  r.enterNs = nowNs();
  r.measured = inWindow(r.startNs);
  const Op& op = ops_[i];
  r.kind = op.kind;
  if (traced_) clientStates_[client].callOrder.push_back(i);
  kv::VoldemortClient& c = cluster_->client(client);
  if (op.kind == OpKind::kPut) {
    c.put(keys_[op.key], codec_.make(i, op.key),
          [this, i, client](bool ok, retro::TimeMicros) {
            completeOpen(i, client, nowNs(), ok);
          });
  } else {
    c.get(keys_[op.key], [this, i, client](bool ok, retro::TimeMicros,
                                           retro::OptValue value) {
      const int64_t done = nowNs();
      completeOpen(i, client, done, checkRead(client, ops_[i].key, ok, value));
    });
  }
  r.callEndNs = nowNs();
}

void Harness::completeOpen(uint32_t i, size_t client, int64_t done, bool ok) {
  OpRecord& r = records_[i];
  r.doneNs = done;
  r.ok = ok;
  account(clientStates_[client], r.kind, r.startNs, done, ok);
  openDone_.fetch_add(1, std::memory_order_release);
}

// --- shared foreground bookkeeping ------------------------------------------

void Harness::account(ClientState& cs, OpKind kind, int64_t start,
                      int64_t done, bool ok) {
  ++cs.completed;
  if (ok && inWindow(done)) ++cs.completedInSlice[sliceOf(done)];
  if (!inWindow(start)) return;
  ++cs.attempted;
  if (!ok) {
    ++cs.failed;
    return;
  }
  (kind == OpKind::kPut ? cs.putUs : cs.getUs)[sliceOf(start)].push_back(
      static_cast<double>(done - start) / 1e3);
}

bool Harness::checkRead(size_t client, uint32_t key, bool ok,
                        const retro::OptValue& value) {
  // An error or an empty read of a preloaded key fails the op; a value
  // never written to the key is a wrong answer.
  if (!ok || !value) return false;
  if (codec_.known(*value, key)) return true;
  std::vector<std::string>& errors = clientStates_[client].errors;
  if (errors.size() < 10) {
    errors.push_back("get(" + keys_[key] +
                     ") returned a value never written to it");
  }
  return false;
}

// --- snapshot and query rounds (admin thread) -------------------------------

void Harness::postAdminRound(bool query) {
  adminPending_.fetch_add(1, std::memory_order_acq_rel);
  cluster_->nodeContext().post(cluster_->adminId(), [this, query] {
    if (admin_.size() >= kMaxAdminRounds) {
      adminPending_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (query) {
      queryRound();
    } else {
      snapshotRound();
    }
  });
}

void Harness::snapshotRound() {
  const size_t slot = admin_.size();
  AdminRecord rec;
  rec.issueNs = nowNs();
  admin_.push_back(rec);
  cluster_->admin().snapshotPast(
      kSnapshotDepthMillis, [this, slot](const core::SnapshotSession& session) {
        AdminRecord& r = admin_[slot];
        r.doneNs = nowNs();
        r.snapshotId = session.request().id;
        r.ok = session.state() == core::GlobalSnapshotState::kComplete;
        r.partial = session.state() == core::GlobalSnapshotState::kPartial;
        inspectSnapshot(slot, r.snapshotId);
      });
}

void Harness::inspectSnapshot(size_t slot, core::SnapshotId id) {
  // Count what each server stored for the cut, then drop it so memory
  // stays flat across rounds.
  checks_[slot].pending.store(static_cast<int>(kServers),
                              std::memory_order_relaxed);
  for (size_t s = 0; s < kServers; ++s) {
    cluster_->nodeContext().post(cluster_->serverId(s), [this, s, slot, id] {
      core::SnapshotStore& store = cluster_->server(s).snapshots();
      if (const core::LocalSnapshot* snap = store.find(id)) {
        checks_[slot].keys.fetch_add(snap->state.size(),
                                     std::memory_order_relaxed);
        (void)store.remove(id);
      }
      if (checks_[slot].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        adminPending_.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
}

void Harness::queryRound() {
  kv::AdminClient& admin = cluster_->admin();
  const int64_t now = admin.clock().tick().l;
  const std::string text = "COUNT OVER [" +
                           std::to_string(now - kQueryFromMillis) + ", " +
                           std::to_string(now - kQueryToMillis) + "] STEP 100";
  const size_t slot = admin_.size();
  AdminRecord rec;
  rec.isQuery = true;
  rec.issueNs = nowNs();
  admin_.push_back(rec);
  admin.doQuery(text, [this, slot](const kv::QueryOutcome& out) {
    AdminRecord& r = admin_[slot];
    r.doneNs = nowNs();
    r.ok = out.status.isOk();
    if (r.ok) {
      const auto& series = out.result.series;
      if (series.size() != kQuerySteps) {
        adminErrors_.push_back("query returned " +
                               std::to_string(series.size()) +
                               " steps, expected " +
                               std::to_string(kQuerySteps));
      }
      for (const auto& [at, result] : series) {
        if (result.matched != kReplicas * kKeys) {
          adminErrors_.push_back("query counted " +
                                 std::to_string(result.matched) +
                                 " keys at " + at.toString() + ", expected " +
                                 std::to_string(kReplicas * kKeys));
          break;
        }
      }
    }
    adminPending_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void Harness::waitAdminIdle() {
  waitUntil(
      [this] { return adminPending_.load(std::memory_order_acquire) == 0; },
      nowNs() + kDrainGraceNs);
}

// --- results ----------------------------------------------------------------

uint64_t Harness::completedInSlice(size_t k) const {
  uint64_t n = 0;
  for (const ClientState& cs : clientStates_) n += cs.completedInSlice[k];
  return n;
}

uint64_t Harness::opsCompleted() const {
  uint64_t n = 0;
  for (const ClientState& cs : clientStates_) n += cs.completed;
  return n;
}

uint64_t Harness::unfinished() const {
  if (workload_.openLoop) {
    return static_cast<uint64_t>(
        std::count_if(records_.begin(), records_.end(), [this](const OpRecord& r) {
          return r.doneNs == 0 && inWindow(r.startNs);
        }));
  }
  return static_cast<uint64_t>(std::count_if(
      lanes_.begin(), lanes_.end(), [](const Lane& l) { return !l.idle; }));
}

uint64_t Harness::attempted() const {
  uint64_t n = unfinished() + admin_.size();
  for (const ClientState& cs : clientStates_) n += cs.attempted;
  return n;
}

uint64_t Harness::failed() const {
  uint64_t n = unfinished();
  for (const ClientState& cs : clientStates_) n += cs.failed;
  for (const AdminRecord& r : admin_) n += r.ok ? 0 : 1;
  return n;
}

std::vector<std::string> Harness::errors() const {
  std::vector<std::string> out;
  for (const ClientState& cs : clientStates_) {
    out.insert(out.end(), cs.errors.begin(), cs.errors.end());
  }
  out.insert(out.end(), adminErrors_.begin(), adminErrors_.end());
  for (size_t slot = 0; slot < admin_.size(); ++slot) {
    const AdminRecord& r = admin_[slot];
    if (r.isQuery || !r.ok) continue;
    const std::string name = "snapshot " + std::to_string(r.snapshotId);
    const uint64_t keys = checks_[slot].keys.load(std::memory_order_acquire);
    if (checks_[slot].pending.load(std::memory_order_acquire) != 0) {
      out.push_back(name + " was not inspected on every server");
    } else if (keys != kReplicas * kKeys) {
      out.push_back(name + " stored " + std::to_string(keys) +
                    " keys across the servers, expected " +
                    std::to_string(kReplicas * kKeys));
    }
  }
  return out;
}

std::vector<double> Harness::latenciesUs(OpKind kind) const {
  std::vector<double> out;
  for (size_t k = 0; k < slices_; ++k) {
    const std::vector<double> slice = latenciesUs(kind, k);
    out.insert(out.end(), slice.begin(), slice.end());
  }
  return out;
}

std::vector<double> Harness::latenciesUs(OpKind kind, size_t k) const {
  std::vector<double> out;
  for (const ClientState& cs : clientStates_) {
    const std::vector<double>& v =
        (kind == OpKind::kPut ? cs.putUs : cs.getUs)[k];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<double> Harness::adminLatenciesMs(bool queries) const {
  std::vector<double> out;
  for (const AdminRecord& r : admin_) {
    if (r.isQuery == queries && r.ok) {
      out.push_back(static_cast<double>(r.doneNs - r.issueNs) / 1e6);
    }
  }
  return out;
}

std::vector<std::vector<const OpRecord*>> Harness::callsByClient() const {
  std::vector<std::vector<const OpRecord*>> out(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    const ClientState& cs = clientStates_[c];
    if (workload_.openLoop) {
      for (uint32_t i : cs.callOrder) out[c].push_back(&records_[i]);
    } else {
      for (const OpRecord& r : cs.records) out[c].push_back(&r);
    }
  }
  return out;
}

std::vector<double> Harness::callUs() const {
  std::vector<double> out;
  for (const auto& calls : callsByClient()) {
    for (const OpRecord* r : calls) {
      if (r->measured && r->callEndNs > 0) {
        out.push_back(static_cast<double>(r->callEndNs - r->enterNs) / 1e3);
      }
    }
  }
  return out;
}

std::vector<double> Harness::generatorLateUs() const {
  std::vector<double> out;
  if (workload_.openLoop) {
    for (const OpRecord& r : records_) {
      if (r.postNs > 0 && inWindow(r.startNs)) {
        out.push_back(static_cast<double>(r.postNs - r.startNs) / 1e3);
      }
    }
  } else {
    for (const ClientState& cs : clientStates_) {
      out.insert(out.end(), cs.gapUs.begin(), cs.gapUs.end());
    }
  }
  return out;
}

}  // namespace rtbench
