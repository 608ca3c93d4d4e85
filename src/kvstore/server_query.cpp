// Temporal queries: fold the store as of the query's arrival, then replay
// the window-log over the query's grid, one bounded chunk per task through
// runChunks.
#include "kvstore/server.hpp"

namespace retro::kv {

void VoldemortServer::handleQueryRequest(hlc::Timestamp eventTs, NodeId from,
                                         QueryRequestBody body) {
  ++queriesServed_;
  // Quarantined records poison every cut through this node: refuse
  // loudly, mirroring the snapshot path.
  if (!quarantine_.empty()) {
    storageCounters_.add("storage.query_refusals");
    refuseQuery(from, body.queryId,
                Status(StatusCode::kFailedPrecondition,
                       std::to_string(quarantine_.size()) +
                           " quarantined keys awaiting repair"));
    return;
  }

  auto parsed = core::SnapshotQuery::parse(body.queryText);
  if (!parsed.isOk()) {
    refuseQuery(from, body.queryId,
                Status(StatusCode::kInvalidArgument, parsed.status().message()));
    return;
  }
  const core::SnapshotQuery& query = parsed.value();
  if (!query.isTemporal()) {
    refuseQuery(from, body.queryId,
                Status(StatusCode::kInvalidArgument,
                       "query has no OVER clause; temporal evaluation "
                       "requires one"));
    return;
  }
  core::PartialsEvaluator eval(query, *query.temporal());
  if (Status s = eval.check(retroscope_.getLog(kStoreLog)); !s.isOk()) {
    refuseQuery(from, body.queryId, s);
    return;
  }

  // Fold the store as of this event one chunk per task, so foreground
  // work runs in between, then replay the grid the same way.
  const uint64_t key = queriesServed_;
  ActiveQuery& q =
      activeQueries_.try_emplace(key, from, body.queryId, std::move(eval))
          .first->second;
  openQueryView(q, eventTs);
  runChunks(key, &VoldemortServer::queryChunk, &VoldemortServer::replyQuery);
}

void VoldemortServer::openQueryView(ActiveQuery& q, hlc::Timestamp t0) {
  q.view = bdb_->openView();
  q.t0 = t0;
  q.grafts = historyGrafts_;
  q.eval.reset();
  q.stats = {};
  q.folded = false;
}

std::optional<VoldemortServer::Chunk> VoldemortServer::queryChunk(
    uint64_t key) {
  auto it = activeQueries_.find(key);
  if (it == activeQueries_.end()) return std::nullopt;
  ActiveQuery& q = it->second;
  if (q.grafts != historyGrafts_ || !q.view.isOpen()) {
    // A graft added history before t0 that the fold never saw, or the
    // store was reopened: start over from now.
    openQueryView(q, retroscope_.now());
  }
  if (!q.folded) {
    const auto fold = [&q](const Key& k, const Value& v) { q.eval.fold(k, v); };
    store::BdbStore::ViewRead read;
    while ((read = q.view.read(config_.copyChunkBytes, fold)) ==
           store::BdbStore::ViewRead::kRestarted) {
      q.eval.reset();
    }
    q.folded = read == store::BdbStore::ViewRead::kDone;
    // The fold's CPU is not modelled: the replay charges the base state.
    return Chunk{0, false};
  }
  core::ReplayStats stats;
  auto done = q.eval.finishPart(
      retroscope_.getLog(kStoreLog), q.t0,
      [&q](const Key& k) { return q.view.valueAtOpen(k); },
      config_.copyChunkBytes, &stats);
  if (!done.isOk()) {
    const NodeId from = q.from;
    const uint64_t queryId = q.queryId;
    activeQueries_.erase(it);
    refuseQuery(from, queryId, done.status());
    return std::nullopt;
  }
  queryReplayTotals_.accumulate(stats);
  diffTotals_.accumulate(stats.diffTotals);
  diffCalls_ += stats.diffCalls;
  q.stats.accumulate(stats);
  // The replay's charge lands before the next chunk or the reply, so
  // replay cost shows up in foreground latency honestly.
  return Chunk{costs_.replay(stats), done.value()};
}

void VoldemortServer::replyQuery(uint64_t key) {
  auto it = activeQueries_.find(key);
  if (it == activeQueries_.end()) return;
  ActiveQuery& q = it->second;
  QueryReplyBody reply;
  reply.queryId = q.queryId;
  reply.steps = q.eval.takeSeries();
  reply.baseStateKeys = q.stats.baseStateKeys;
  reply.replayedKeys = q.stats.replayedKeys;
  const NodeId from = q.from;
  // The overlay holds a value per key the diffs touched: free it off the
  // node thread, like a removed snapshot.
  ctx_->dispose(std::make_shared<core::PartialsEvaluator>(std::move(q.eval)));
  activeQueries_.erase(it);
  send(from, kQueryReply, reply);
}

void VoldemortServer::refuseQuery(NodeId to, uint64_t queryId,
                                  const Status& why) {
  QueryReplyBody reply;
  reply.queryId = queryId;
  reply.statusCode = why.code();
  reply.reason = why.message();
  send(to, kQueryReply, reply);
}

}  // namespace retro::kv
