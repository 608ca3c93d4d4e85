#include "core/temporal_query.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

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
  grid_.clear();
  diffs_ = 0;
  scan_ = {};
  applying_ = {};
  reading_ = true;
  overlay_.clear();
  baseKeyDelta_ = 0;
  series_.clear();
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
    if (it == histogram_.end()) {
      throw std::logic_error("PartialsEvaluator: removing " +
                             std::to_string(*n) + ", which was never added");
    }
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
  auto done = finishPart(log, t0, valueAtT0, UINT64_MAX, stats);
  if (!done.isOk()) return done.status();
  return takeSeries();
}

void PartialsEvaluator::startDiff(hlc::Timestamp t0) {
  // No history after T0 is read: later grid points see the state at T0.
  const auto upToT0 = [t0](hlc::Timestamp t) { return std::min(t, t0); };
  using Direction = log::DiffScan::Direction;
  if (diffs_ == 0) {
    const hlc::Timestamp base = spec_.rolling ? grid_.back() : grid_.front();
    scan_ = log::DiffScan(Direction::kBackward, upToT0(base), t0);
  } else if (!spec_.rolling) {
    scan_ = log::DiffScan(Direction::kForward, upToT0(grid_[diffs_ - 1]),
                          upToT0(grid_[diffs_]));
  } else {
    // Rolling scan: walk the grid backward from the newest point (fig. 15
    // rolling-snapshot machinery); the series is flipped forward at the
    // end.
    const size_t i = grid_.size() - 1 - diffs_;
    scan_ = log::DiffScan(Direction::kBackward, upToT0(grid_[i]),
                          upToT0(grid_[i + 1]));
  }
  reading_ = true;
}

Result<bool> PartialsEvaluator::finishPart(
    const log::WindowLog& log, hlc::Timestamp t0,
    const std::function<const Value*(const Key&)>& valueAtT0,
    uint64_t budgetBytes, ReplayStats* stats) {
  if (Status s = check(log); !s.isOk()) return s;
  if (!grid_.empty() && diffs_ == grid_.size()) return true;
  if (grid_.empty()) {
    grid_ = temporalGrid(spec_);
    series_.reserve(grid_.size());
    startDiff(t0);
  }
  ReplayStats local;
  // Moves one key to its target at the next grid point: the overlay
  // holds it from then on, and the aggregate follows.
  const auto apply = [&](Key&& key, OptValue&& target) {
    auto [it, fresh] = overlay_.try_emplace(std::move(key));
    const Key& k = it->first;
    const Value* value =
        fresh ? valueAtT0(k) : (it->second ? &*it->second : nullptr);
    int64_t keyDelta = 0;
    if (value != nullptr) {
      remove(k, *value);
      --keyDelta;
    }
    if (target) {
      add(k, *target);
      ++keyDelta;
    }
    if (diffs_ == 0) {
      baseKeyDelta_ += keyDelta;
      ++local.baseDiffKeys;
    } else {
      ++local.replayedKeys;
      local.replayedBytes += k.size() + (target ? target->size() : 0);
    }
    it->second = std::move(target);
  };
  uint64_t left = budgetBytes;
  const auto spend = [&left](uint64_t bytes) {
    left -= std::min(left, bytes);
  };
  bool done = false;
  for (;;) {
    if (reading_) {
      auto visited = log.advance(scan_, left, &local.diffTotals);
      if (!visited.isOk()) return visited.status();
      spend(visited.value());
      if (!scan_.done()) break;
      ++local.diffCalls;
      applying_ = std::move(scan_.diff());
      if (diffs_ == 0) overlay_.reserve(applying_.size());
      reading_ = false;
      if (left == 0) break;
    }
    // Applying a key also reads its value at T0 and moves the aggregate:
    // it counts twice what a snapshot's application of it would.
    spend(2 * applying_.drain(left / 2, apply));
    if (!applying_.empty()) break;
    // Diff number diffs_ is applied: the aggregate is at its grid point.
    if (diffs_ == 0) {
      local.baseStateKeys =
          static_cast<size_t>(static_cast<int64_t>(folded_) + baseKeyDelta_);
      local.steps = grid_.size();
    }
    const size_t at = spec_.rolling ? grid_.size() - 1 - diffs_ : diffs_;
    series_.push_back({grid_[at], partial()});
    if (++diffs_ == grid_.size()) {
      if (spec_.rolling) std::reverse(series_.begin(), series_.end());
      done = true;
      break;
    }
    startDiff(t0);
    if (left == 0) break;
  }
  if (stats) stats->accumulate(local);
  return done;
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
