#include "core/temporal_query.hpp"

#include <algorithm>

namespace retro::core {

namespace {

Status validateSpec(const TemporalSpec& spec) {
  if (spec.to < spec.from) {
    return Status(StatusCode::kInvalidArgument,
                  "empty temporal interval: end " + spec.to.toString() +
                      " precedes start " + spec.from.toString());
  }
  if (spec.stepMillis <= 0) {
    return Status(StatusCode::kInvalidArgument,
                  "temporal step must be positive, got " +
                      std::to_string(spec.stepMillis));
  }
  return Status::ok();
}

}  // namespace

std::vector<hlc::Timestamp> temporalGrid(const TemporalSpec& spec) {
  std::vector<hlc::Timestamp> grid;
  grid.push_back(spec.from);
  uint64_t cur = static_cast<uint64_t>(spec.from.l);
  for (;;) {
    const uint64_t next = cur + static_cast<uint64_t>(spec.stepMillis);
    const int64_t l = static_cast<int64_t>(next);
    // Stop instead of wrapping past the signed maximum.
    if (next < cur || (l < 0 && spec.from.l >= 0)) break;
    const hlc::Timestamp t{l, spec.from.c};
    if (spec.to < t) break;
    grid.push_back(t);
    cur = next;
  }
  return grid;
}

PartialsEvaluator::PartialsEvaluator(SnapshotQuery query, TemporalSpec spec)
    : query_(std::move(query)), spec_(spec) {}

Status PartialsEvaluator::check(const log::WindowLog& log) const {
  if (Status s = validateSpec(spec_); !s.isOk()) return s;
  if (!log.covers(spec_.from)) {
    // Structured refusal, never silent truncation: the caller learns the
    // earliest reachable time and can re-issue a narrower query.
    return Status(StatusCode::kOutOfRange,
                  "interval start " + spec_.from.toString() +
                      " precedes the retained window floor " +
                      log.floor().toString());
  }
  return Status::ok();
}

void PartialsEvaluator::fold(const Key& key, const Value& value) {
  ++folded_;
  add(key, value);
}

void PartialsEvaluator::reset() {
  folded_ = 0;
  matched_ = 0;
  numericCount_ = 0;
  sumBits_ = 0;
  histogram_.clear();
}

void PartialsEvaluator::add(const Key& key, const Value& value) {
  if (!query_.matches(key, value)) return;
  ++matched_;
  if (const auto n = SnapshotQuery::parseNumeric(value)) {
    ++numericCount_;
    sumBits_ += static_cast<uint64_t>(*n);
    ++histogram_[*n];
  }
}

void PartialsEvaluator::remove(const Key& key, const Value& value) {
  if (!query_.matches(key, value)) return;
  --matched_;
  if (const auto n = SnapshotQuery::parseNumeric(value)) {
    --numericCount_;
    sumBits_ -= static_cast<uint64_t>(*n);
    const auto it = histogram_.find(*n);
    if (--it->second == 0) histogram_.erase(it);
  }
}

PartialAggregate PartialsEvaluator::partial() const {
  PartialAggregate p;
  p.matched = matched_;
  p.numericCount = numericCount_;
  p.sumBits = sumBits_;
  if (!histogram_.empty()) {
    p.minValue = histogram_.begin()->first;
    p.maxValue = histogram_.rbegin()->first;
  }
  return p;
}

Result<std::vector<TemporalStep>> PartialsEvaluator::finish(
    const log::WindowLog& log, hlc::Timestamp t0,
    const std::function<const Value*(const Key&)>& valueAtT0,
    ReplayStats* stats) {
  if (Status s = check(log); !s.isOk()) return s;
  const std::vector<hlc::Timestamp> grid = temporalGrid(spec_);
  // No history after T0 is read: later grid points see the state at T0.
  const auto upToT0 = [t0](hlc::Timestamp t) { return std::min(t, t0); };

  // Keys a diff touched, with their value at the current grid point.
  std::unordered_map<Key, OptValue> overlay;
  // Moves each key of `diff` to its target; returns the change in the
  // number of keys present.
  const auto apply = [&](const log::DiffMap& diff) {
    int64_t keyDelta = 0;
    for (const auto& [key, target] : diff.entries()) {
      auto [it, fresh] = overlay.try_emplace(key);
      const Value* value =
          fresh ? valueAtT0(key) : (it->second ? &*it->second : nullptr);
      if (value != nullptr) {
        remove(key, *value);
        --keyDelta;
      }
      if (target) {
        add(key, *target);
        ++keyDelta;
      }
      it->second = target;
    }
    return keyDelta;
  };
  const auto step = [&](Result<log::DiffMap> diff,
                        const log::DiffStats& ds) -> Status {
    if (!diff.isOk()) return diff.status();
    if (stats) {
      ++stats->diffCalls;
      stats->diffTotals.accumulate(ds);
      stats->replayedKeys += diff.value().size();
      stats->replayedBytes += diff.value().dataBytes();
    }
    apply(diff.value());
    return Status::ok();
  };

  const hlc::Timestamp base = spec_.rolling ? grid.back() : grid.front();
  log::DiffStats baseStats;
  auto toBase = log.diffBackward(t0, upToT0(base), &baseStats);
  if (!toBase.isOk()) return toBase.status();
  overlay.reserve(toBase.value().size());
  const int64_t baseKeys =
      static_cast<int64_t>(folded_) + apply(toBase.value());
  if (stats) {
    ++stats->diffCalls;
    stats->diffTotals.accumulate(baseStats);
    stats->baseStateKeys += static_cast<size_t>(baseKeys);
    stats->steps += grid.size();
  }

  std::vector<TemporalStep> series;
  series.reserve(grid.size());
  series.push_back({base, partial()});

  if (!spec_.rolling) {
    for (size_t i = 1; i < grid.size(); ++i) {
      log::DiffStats ds;
      auto diff = log.diffForward(upToT0(grid[i - 1]), upToT0(grid[i]), &ds);
      if (Status s = step(std::move(diff), ds); !s.isOk()) return s;
      series.push_back({grid[i], partial()});
    }
    return series;
  }

  // Rolling scan: walk the grid backward from the newest point (fig. 15
  // rolling-snapshot machinery), then flip the series forward.
  for (size_t i = grid.size() - 1; i-- > 0;) {
    log::DiffStats ds;
    auto diff = log.diffBackward(upToT0(grid[i + 1]), upToT0(grid[i]), &ds);
    if (Status s = step(std::move(diff), ds); !s.isOk()) return s;
    series.push_back({grid[i], partial()});
  }
  std::reverse(series.begin(), series.end());
  return series;
}

Result<std::vector<TemporalStep>> evalPartials(
    const SnapshotQuery& query, const TemporalSpec& spec,
    const std::unordered_map<Key, Value>& currentState,
    const log::WindowLog& log, ReplayStats* stats) {
  PartialsEvaluator eval(query, spec);
  if (Status s = eval.check(log); !s.isOk()) return s;
  for (const auto& [key, value] : currentState) eval.fold(key, value);
  return eval.finish(
      log, log.latest(),
      [&](const Key& key) -> const Value* {
        const auto it = currentState.find(key);
        return it == currentState.end() ? nullptr : &it->second;
      },
      stats);
}

Result<TemporalQueryResult> combinePartials(
    const SnapshotQuery& query,
    const std::vector<std::vector<TemporalStep>>& perNode) {
  if (!query.isTemporal()) {
    return Status(StatusCode::kInvalidArgument,
                  "combinePartials requires a temporal query");
  }
  if (perNode.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "no per-node series to combine");
  }
  const size_t steps = perNode.front().size();
  for (const auto& series : perNode) {
    if (series.size() != steps) {
      return Status(StatusCode::kInvalidArgument,
                    "per-node series lengths disagree");
    }
  }

  TemporalQueryResult out;
  out.series.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    const hlc::Timestamp at = perNode.front()[i].at;
    PartialAggregate merged;
    for (const auto& series : perNode) {
      if (series[i].at != at) {
        return Status(StatusCode::kInvalidArgument,
                      "per-node evaluation grids disagree at step " +
                          std::to_string(i));
      }
      merged.merge(series[i].partial);
    }
    out.series.emplace_back(at, merged.finalize(query.aggregate()));
  }

  const TemporalSpec& spec = *query.temporal();
  if (spec.when) {
    TemporalQueryResult::Verdict verdict;
    verdict.alwaysHeld = true;
    for (const auto& [at, result] : out.series) {
      const bool held =
          whenConditionHolds(result, spec.when->op, spec.when->operand);
      verdict.everHeld = verdict.everHeld || held;
      verdict.alwaysHeld = verdict.alwaysHeld && held;
      if (held) {
        if (!verdict.firstHeld) verdict.firstHeld = at;
        verdict.lastHeld = at;
      }
    }
    out.verdict = verdict;
  }
  return out;
}

Result<TemporalQueryResult> evalOverLog(
    const SnapshotQuery& query,
    const std::unordered_map<Key, Value>& currentState,
    const log::WindowLog& log, ReplayStats* stats) {
  if (!query.isTemporal()) {
    return Status(StatusCode::kInvalidArgument,
                  "evalOverLog requires a temporal query (OVER clause)");
  }
  auto partials =
      evalPartials(query, *query.temporal(), currentState, log, stats);
  if (!partials.isOk()) return partials.status();
  return combinePartials(query, {std::move(partials.value())});
}

}  // namespace retro::core
