#include "core/ring.hpp"

#include "util/assert.hpp"

namespace emts::core {

TraceRing::TraceRing(std::size_t capacity) : slots_(capacity) {
  EMTS_REQUIRE(capacity >= 1, "trace ring capacity must be >= 1");
}

void TraceRing::push(const Trace& trace) {
  // assign() reuses the slot's buffer when capacities match — the steady
  // state once every slot has seen one trace of the stream's length.
  slots_[head_].assign(trace.begin(), trace.end());
  head_ = (head_ + 1) % slots_.size();
  if (count_ < slots_.size()) ++count_;
  ++total_pushed_;
}

std::size_t TraceRing::slot_index(std::size_t i) const {
  const std::size_t cap = slots_.size();
  return (head_ + cap - count_ + i) % cap;
}

const Trace& TraceRing::oldest(std::size_t i) const {
  EMTS_REQUIRE(i < count_, "trace ring index out of range");
  return slots_[slot_index(i)];
}

const Trace& TraceRing::newest() const {
  EMTS_REQUIRE(count_ > 0, "trace ring is empty");
  return oldest(count_ - 1);
}

void TraceRing::clear() {
  head_ = 0;
  count_ = 0;
}

void TraceRing::restore_total_pushed(std::uint64_t total) {
  EMTS_REQUIRE(total >= total_pushed_, "trace ring lifetime counter cannot run backward");
  total_pushed_ = total;
}

}  // namespace emts::core
