// Fixed-capacity trace ring for the monitoring hot path. The runtime monitor
// keeps the most recent spectral window of captures; a TraceSet that is
// cleared after every pass reallocates each trace on re-entry, which is the
// dominant allocation source in a streamed deployment. The ring owns
// `capacity` reusable slots: push() copies into the oldest slot's existing
// storage, so after one full revolution the window ingests traces with zero
// heap traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/trace.hpp"

namespace emts::core {

class TraceRing {
 public:
  /// Requires capacity >= 1; slot storage grows lazily on first use.
  explicit TraceRing(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == slots_.size(); }

  /// Total pushes over the ring's lifetime (not reset by clear()).
  std::uint64_t total_pushed() const { return total_pushed_; }

  /// Copies the trace into the next slot, evicting the oldest entry when
  /// full. Slot storage is reused, so pushing equal-length traces never
  /// allocates once every slot has been written once.
  void push(const Trace& trace);

  /// i-th entry in arrival order: oldest(0) is the least recent retained
  /// trace, oldest(size() - 1) == newest(). Requires i < size().
  const Trace& oldest(std::size_t i = 0) const;
  const Trace& newest() const;

  /// Logical clear: size() drops to zero but every slot keeps its storage,
  /// preserving the zero-allocation guarantee across window boundaries.
  void clear();

  /// Reinstates the lifetime push counter after a snapshot restore — the one
  /// piece of ring state push() cannot reconstruct. Requires `total` to be
  /// at least the pushes already recorded (the counter never runs backward).
  void restore_total_pushed(std::uint64_t total);

 private:
  std::size_t slot_index(std::size_t i) const;

  std::vector<Trace> slots_;
  std::size_t head_ = 0;  // next write position
  std::size_t count_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace emts::core
