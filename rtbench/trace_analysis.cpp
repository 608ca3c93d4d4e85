#include "trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>

#include "stats.hpp"

namespace rtbench {

namespace sim = retro::sim;
using retro::NodeId;

namespace {

struct Where {
  NodeId node = 0;
  size_t index = 0;
};

/// One request leg: client send -> server receive tick -> reply send ->
/// client receive tick.
struct Leg {
  bool complete = false;
  int64_t sendNs = 0;
  int64_t recvNs = 0;
  int64_t replyNs = 0;
  int64_t backNs = 0;
  double serverUs = 0;
};

constexpr double PutPath::*kFields[] = {
    &PutPath::gen,      &PutPath::post,     &PutPath::call,
    &PutPath::requestHop, &PutPath::server, &PutPath::replyHop,
    &PutPath::complete, &PutPath::total,    &PutPath::covered};

double usBetween(int64_t fromNs, int64_t toNs) {
  return static_cast<double>(toNs - fromNs) / 1e3;
}

/// Microseconds of [start, done] inside at least one span recorded for the
/// put: the benchmark's generator, post and call records, the trace's hop,
/// server and reply-hop spans of every replica leg, and the completing
/// reply's receive tick -> callback.
double coveredUs(const OpRecord& op, std::span<const Leg> legs,
                 const Leg& last) {
  std::vector<std::pair<int64_t, int64_t>> spans;
  if (op.postNs > 0) {
    spans.emplace_back(op.startNs, op.postNs);
    spans.emplace_back(op.postNs, op.enterNs);
  }
  spans.emplace_back(op.enterNs, op.callEndNs);
  for (const Leg& leg : legs) {
    spans.emplace_back(leg.sendNs, leg.recvNs);
    spans.emplace_back(leg.recvNs, leg.replyNs);
    spans.emplace_back(leg.replyNs, leg.backNs);
  }
  spans.emplace_back(last.backNs, op.doneNs);
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t reach = op.startNs;
  for (const auto& [from, to] : spans) {
    const int64_t begin = std::max(from, reach);
    const int64_t end = std::min(to, op.doneNs);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return static_cast<double>(covered) / 1e3;
}

}  // namespace

TraceSummary analyzeTrace(Harness& h) {
  TraceSummary out;
  retro::kv::RealtimeKvCluster& cluster = h.cluster();
  const sim::CausalityRecorder& rec = cluster.trace()->recorder();
  const auto ns = [&h](retro::TimeMicros micros) { return h.traceNs(micros); };

  std::unordered_map<uint64_t, Where> recvAt;
  for (NodeId n = 0; n < rec.nodeCount(); ++n) {
    const auto& ev = rec.eventsOf(n);
    for (size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].type == sim::EventType::kRecv) {
        recvAt.emplace(ev[i].messageId, Where{n, i});
      }
    }
  }
  const auto findRecv = [&recvAt](uint64_t msgId) -> const Where* {
    const auto it = recvAt.find(msgId);
    return it == recvAt.end() ? nullptr : &it->second;
  };
  const auto eventAt = [&rec](const Where& w) -> const sim::EventRecord& {
    return rec.eventsOf(w.node)[w.index];
  };

  for (NodeId n = 0; n < rec.nodeCount(); ++n) {
    for (const sim::EventRecord& e : rec.eventsOf(n)) {
      if (e.type != sim::EventType::kSend) continue;
      const int64_t at = ns(e.trueMicros);
      if (at < h.windowStartNs() || at >= h.windowEndNs()) continue;
      if (const Where* w = findRecv(e.messageId)) {
        out.hopUs.push_back(
            static_cast<double>(eventAt(*w).trueMicros - e.trueMicros));
      }
    }
  }

  // A put or get request is answered by the very next event on its
  // server: those handlers reply before they return, and one node's
  // handlers never interleave.
  const auto follow = [&](const sim::EventRecord& send, NodeId client) {
    Leg leg;
    leg.sendNs = ns(send.trueMicros);
    const Where* at = findRecv(send.messageId);
    if (at == nullptr) return leg;
    const auto& sev = rec.eventsOf(at->node);
    if (at->index + 1 >= sev.size() ||
        sev[at->index + 1].type != sim::EventType::kSend) {
      return leg;
    }
    const sim::EventRecord& tick = sev[at->index];
    const sim::EventRecord& reply = sev[at->index + 1];
    const Where* back = findRecv(reply.messageId);
    if (back == nullptr || back->node != client) return leg;
    leg.recvNs = ns(tick.trueMicros);
    leg.replyNs = ns(reply.trueMicros);
    leg.backNs = ns(eventAt(*back).trueMicros);
    leg.serverUs = static_cast<double>(reply.trueMicros - tick.trueMicros);
    leg.complete = true;
    return leg;
  };

  // Each client's sends belong to its calls in call order: a put sends one
  // request per replica, a get one (R = 1), and client timeouts are off.
  const auto calls = h.callsByClient();
  for (size_t c = 0; c < calls.size(); ++c) {
    const NodeId node = cluster.clientId(c);
    const auto& ev = rec.eventsOf(node);
    size_t p = 0;
    const auto nextSend = [&ev, &p]() -> const sim::EventRecord* {
      while (p < ev.size() && ev[p].type != sim::EventType::kSend) ++p;
      return p < ev.size() ? &ev[p++] : nullptr;
    };
    for (const OpRecord* op : calls[c]) {
      const size_t need = op->kind == OpKind::kPut ? kReplicas : 1;
      Leg legs[kReplicas];
      for (size_t k = 0; k < need; ++k) {
        const sim::EventRecord* send = nextSend();
        if (send == nullptr) {
          out.error = "client " + std::to_string(c) +
                      " made more calls than the trace has sends";
          return out;
        }
        legs[k] = follow(*send, node);
      }
      if (!op->measured || !op->ok) continue;
      const Leg* last = nullptr;
      bool allComplete = true;
      for (size_t k = 0; k < need; ++k) {
        if (!legs[k].complete) {
          allComplete = false;
          continue;
        }
        (op->kind == OpKind::kPut ? out.serverPutUs : out.serverGetUs)
            .push_back(legs[k].serverUs);
        if (last == nullptr || legs[k].backNs > last->backNs) last = &legs[k];
      }
      if (op->kind != OpKind::kPut || !allComplete) continue;
      PutPath path;
      if (op->postNs > 0) {
        path.gen = usBetween(op->startNs, op->postNs);
        path.post = usBetween(op->postNs, op->enterNs);
      }
      path.call = usBetween(op->enterNs, last->sendNs);
      path.requestHop = usBetween(last->sendNs, last->recvNs);
      path.server = usBetween(last->recvNs, last->replyNs);
      path.replyHop = usBetween(last->replyNs, last->backNs);
      path.complete = usBetween(last->backNs, op->doneNs);
      path.total = usBetween(op->startNs, op->doneNs);
      path.covered = coveredUs(*op, std::span<const Leg>(legs, need), *last);
      out.putPaths.push_back(path);
    }
    if (nextSend() != nullptr) {
      out.error = "client " + std::to_string(c) +
                  " has sends that no call accounts for";
      return out;
    }
  }

  // The admin sends one request per server for every round, in round
  // order (collection retries are off).  A query's reply is the first
  // later send of that server that the admin receives.
  const NodeId admin = cluster.adminId();
  const auto& aev = rec.eventsOf(admin);
  size_t p = 0;
  for (const AdminRecord& r : h.adminRecords()) {
    for (size_t k = 0; k < kServers; ++k) {
      while (p < aev.size() && aev[p].type != sim::EventType::kSend) ++p;
      if (p == aev.size()) {
        out.error = "the admin made more rounds than the trace has sends";
        return out;
      }
      const sim::EventRecord& send = aev[p++];
      if (!r.isQuery || !r.ok) continue;
      const Where* at = findRecv(send.messageId);
      if (at == nullptr) continue;
      const auto& sev = rec.eventsOf(at->node);
      for (size_t j = at->index + 1; j < sev.size(); ++j) {
        if (sev[j].type != sim::EventType::kSend) continue;
        const Where* back = findRecv(sev[j].messageId);
        if (back != nullptr && back->node == admin) {
          out.queryEvalMs.push_back(
              static_cast<double>(sev[j].trueMicros -
                                  sev[at->index].trueMicros) /
              1e3);
          break;
        }
      }
    }
  }
  return out;
}

PutPath typicalPut(const std::vector<PutPath>& paths) {
  std::vector<double> totals;
  totals.reserve(paths.size());
  for (const PutPath& p : paths) totals.push_back(p.total);
  const double lo = percentile(totals, 45);
  const double hi = percentile(totals, 55);
  PutPath mean;
  double n = 0;
  for (const PutPath& p : paths) {
    if (p.total < lo || p.total > hi) continue;
    for (double PutPath::*f : kFields) mean.*f += p.*f;
    ++n;
  }
  for (double PutPath::*f : kFields) {
    mean.*f = n > 0 ? mean.*f / n : std::nan("");
  }
  return mean;
}

double coverage(const std::vector<PutPath>& paths) {
  const PutPath typical = typicalPut(paths);
  return typical.covered / typical.total;
}

}  // namespace rtbench
