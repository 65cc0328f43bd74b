#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/assert.hpp"

namespace emts::util {

// Bounded multi-producer / multi-consumer FIFO ring in the classic DPDK
// style: a producer CAS-reserves the next index on `prod_head_`, moves its
// payload into the reserved slot, then publishes by advancing `prod_tail_`
// in reservation order. Consumers mirror the same protocol on
// `cons_head_` / `cons_tail_`. All storage is preallocated in the
// constructor; enqueue/dequeue move elements and never allocate, which
// preserves the fleet's zero-steady-state-allocation discipline.
//
// Ordering guarantees:
//  - Global FIFO per ring: elements dequeue in publish order.
//  - A single producer's successive enqueues take increasing reservations,
//    so its elements never reorder relative to each other. This is what
//    keeps per-device trace ordering intact through a fleet shard.
//
// Memory ordering: the publishing store on `prod_tail_` is a release, and
// consumers read it with acquire before touching slots, so payload writes
// happen-before payload reads. The in-order publish spin loads the tail
// with acquire as well; that chains earlier producers' payload writes into
// the later producer's release store (and symmetrically for consumers), so
// one acquire on the tail covers every slot up to it.
//
// `capacity` may be any positive value; physical storage is rounded up to
// a power of two and occupancy is capped at the logical capacity.
template <typename T>
class BoundedMpmcRing {
 public:
  explicit BoundedMpmcRing(std::size_t capacity) : capacity_(capacity) {
    EMTS_REQUIRE(capacity > 0, "BoundedMpmcRing: capacity must be positive");
    std::size_t physical = 1;
    while (physical < capacity) physical <<= 1;
    mask_ = physical - 1;
    slots_.resize(physical);
  }

  BoundedMpmcRing(const BoundedMpmcRing&) = delete;
  BoundedMpmcRing& operator=(const BoundedMpmcRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  // Occupancy snapshot; exact when quiescent, approximate under
  // concurrency (reservations in flight are not counted).
  std::size_t size() const {
    std::uint64_t tail = prod_tail_.load(std::memory_order_acquire);
    std::uint64_t head = cons_tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty() const { return size() == 0; }

  // Moves `item` into the ring. Returns false (leaving `item` untouched)
  // when the ring is full. Never blocks, never allocates.
  bool try_enqueue(T&& item) {
    std::uint64_t head;
    for (;;) {
      head = prod_head_.load(std::memory_order_relaxed);
      const std::uint64_t consumed = cons_tail_.load(std::memory_order_acquire);
      if (static_cast<std::size_t>(head - consumed) >= capacity_) return false;
      if (prod_head_.compare_exchange_weak(head, head + 1,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
    slots_[static_cast<std::size_t>(head & mask_)] = std::move(item);
    // Publish in reservation order: wait for earlier producers to land.
    while (prod_tail_.load(std::memory_order_acquire) != head) {
      cpu_relax();
    }
    prod_tail_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Moves the oldest element into `out`. Returns false when the ring is
  // empty. Never blocks, never allocates.
  bool try_dequeue(T& out) {
    std::uint64_t head;
    for (;;) {
      head = cons_head_.load(std::memory_order_relaxed);
      const std::uint64_t produced = prod_tail_.load(std::memory_order_acquire);
      if (produced == head) return false;
      if (cons_head_.compare_exchange_weak(head, head + 1,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
    out = std::move(slots_[static_cast<std::size_t>(head & mask_)]);
    while (cons_tail_.load(std::memory_order_acquire) != head) {
      cpu_relax();
    }
    cons_tail_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  // Fixed 64 rather than std::hardware_destructive_interference_size: the
  // latter varies with compiler tuning flags (and warns when it leaks into
  // an ABI); 64 is the destructive-interference line on every target we
  // build for.
  static constexpr std::size_t kCacheLine = 64;

  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<T> slots_;

  alignas(kCacheLine) std::atomic<std::uint64_t> prod_head_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> prod_tail_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> cons_head_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> cons_tail_{0};
};

}  // namespace emts::util
