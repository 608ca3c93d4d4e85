#include "log/diff.hpp"

namespace retro::log {

namespace {
size_t entryBytes(const Key& key, const OptValue& value) {
  return key.size() + (value ? value->size() : 0);
}
}  // namespace

void DiffMap::set(const Key& key, OptValue value) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    dataBytes_ += entryBytes(key, value);
    map_.emplace(key, std::move(value));
  } else {
    dataBytes_ -= entryBytes(key, it->second);
    dataBytes_ += entryBytes(key, value);
    it->second = std::move(value);
  }
}

void DiffMap::setIfAbsent(const Key& key, const OptValue& value) {
  auto [it, inserted] = map_.try_emplace(key, value);
  if (inserted) dataBytes_ += entryBytes(key, value);
}

void DiffMap::applyTo(std::unordered_map<Key, Value>& state) const {
  for (const auto& [key, value] : map_) {
    if (value) {
      state[key] = *value;
    } else {
      state.erase(key);
    }
  }
}

uint64_t DiffMap::drain(uint64_t budgetBytes,
                        const std::function<void(Key&&, OptValue&&)>& sink) {
  uint64_t bytes = 0;
  while (!map_.empty() && (bytes < budgetBytes || bytes == 0)) {
    auto node = map_.extract(map_.begin());
    const size_t n = entryBytes(node.key(), node.mapped());
    dataBytes_ -= n;
    bytes += n + (node.mapped() ? node.mapped()->size() : 0);
    sink(std::move(node.key()), std::move(node.mapped()));
  }
  return bytes;
}

void DiffMap::compose(const DiffMap& later) {
  for (const auto& [key, value] : later.map_) set(key, value);
}

}  // namespace retro::log
