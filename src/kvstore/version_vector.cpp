#include "kvstore/version_vector.hpp"

#include <algorithm>

namespace retro::kv {

void VersionVector::increment(uint32_t writer) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), writer,
      [](const auto& e, uint32_t w) { return e.first < w; });
  if (it != entries_.end() && it->first == writer) {
    ++it->second;
  } else {
    entries_.insert(it, {writer, 1});
  }
}

uint64_t VersionVector::counterOf(uint32_t writer) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), writer,
      [](const auto& e, uint32_t w) { return e.first < w; });
  if (it != entries_.end() && it->first == writer) return it->second;
  return 0;
}

Occurred VersionVector::compare(const VersionVector& other) const {
  bool thisBigger = false;
  bool otherBigger = false;
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].first < other.entries_[j].first)) {
      thisBigger = true;
      ++i;
    } else if (i >= entries_.size() ||
               entries_[i].first > other.entries_[j].first) {
      otherBigger = true;
      ++j;
    } else {
      if (entries_[i].second > other.entries_[j].second) thisBigger = true;
      if (entries_[i].second < other.entries_[j].second) otherBigger = true;
      ++i;
      ++j;
    }
  }
  if (thisBigger && otherBigger) return Occurred::kConcurrent;
  if (thisBigger) return Occurred::kAfter;
  if (otherBigger) return Occurred::kBefore;
  return Occurred::kEqual;
}

void VersionVector::merge(const VersionVector& other) {
  std::vector<std::pair<uint32_t, uint64_t>> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].first < other.entries_[j].first)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               entries_[i].first > other.entries_[j].first) {
      merged.push_back(other.entries_[j++]);
    } else {
      merged.emplace_back(entries_[i].first,
                          std::max(entries_[i].second, other.entries_[j].second));
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void VersionVector::writeTo(ByteWriter& w) const {
  w.writeVarU64(entries_.size());
  for (const auto& [writer, counter] : entries_) {
    w.writeU32(writer);
    w.writeVarU64(counter);
  }
}

VersionVector VersionVector::readFrom(ByteReader& r) {
  VersionVector v;
  const uint64_t n = r.readCount(4 + 1);  // u32 writer, varint counter
  v.entries_.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    const uint32_t writer = r.readU32();
    const uint64_t counter = r.readVarU64();
    v.entries_.emplace_back(writer, counter);
  }
  return v;
}

}  // namespace retro::kv
