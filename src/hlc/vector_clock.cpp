#include "hlc/vector_clock.hpp"

#include <algorithm>
#include <stdexcept>

namespace retro::hlc {

const std::vector<uint64_t>& VectorClock::tick() {
  ++v_[self_];
  return v_;
}

const std::vector<uint64_t>& VectorClock::tick(const std::vector<uint64_t>& m) {
  if (m.size() != v_.size()) {
    throw std::invalid_argument("VectorClock: dimension mismatch");
  }
  for (size_t i = 0; i < v_.size(); ++i) v_[i] = std::max(v_[i], m[i]);
  ++v_[self_];
  return v_;
}

void VectorClock::writeTo(ByteWriter& w) const {
  w.writeVarU64(v_.size());
  for (uint64_t x : v_) w.writeU64(x);
}

std::vector<uint64_t> VectorClock::readFrom(ByteReader& r) {
  const uint64_t n = r.readCount(8);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = r.readU64();
  return v;
}

bool VectorClock::happenedBefore(const std::vector<uint64_t>& a,
                                 const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("VectorClock: dimension mismatch");
  }
  bool strictlyLess = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictlyLess = true;
  }
  return strictlyLess;
}

bool VectorClock::concurrent(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b) {
  return !happenedBefore(a, b) && !happenedBefore(b, a) && a != b;
}

}  // namespace retro::hlc
