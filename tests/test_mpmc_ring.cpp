// BoundedMpmcRing: the lock-free bounded FIFO under the fleet's shard
// queues. These suites pin the properties the fleet relies on — FIFO order,
// full/empty refusal, arbitrary (non-power-of-two) logical capacity,
// wraparound reuse, and multi-producer/multi-consumer safety with
// per-producer order preserved (the per-device ordering guarantee).
#include "util/mpmc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace {

using emts::util::BoundedMpmcRing;

TEST(BoundedMpmcRing, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedMpmcRing<int>{0}, emts::precondition_error);
}

TEST(BoundedMpmcRing, SingleThreadedFifoAndOccupancy) {
  BoundedMpmcRing<int> ring{4};
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.empty());

  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(ring.try_enqueue(int{v}));
  }
  EXPECT_EQ(ring.size(), 4u);

  EXPECT_FALSE(ring.try_enqueue(99));  // full

  int out = -1;
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(ring.try_dequeue(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_dequeue(out));  // empty
}

TEST(BoundedMpmcRing, NonPowerOfTwoCapacityIsHonoredExactly) {
  // Physical storage rounds up to a power of two; the logical capacity must
  // still cap occupancy at exactly the requested value.
  BoundedMpmcRing<int> ring{3};
  for (int v = 1; v <= 3; ++v) EXPECT_TRUE(ring.try_enqueue(int{v}));
  EXPECT_FALSE(ring.try_enqueue(4));  // the 4th would fit the physical 4 slots
  EXPECT_EQ(ring.size(), 3u);

  int out = 0;
  for (int v = 1; v <= 3; ++v) {
    EXPECT_TRUE(ring.try_dequeue(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(ring.try_dequeue(out));
}

TEST(BoundedMpmcRing, RoundTripPreservesOrderAcrossWraparound) {
  BoundedMpmcRing<std::uint64_t> ring{8};
  std::uint64_t next = 0;
  std::uint64_t expect = 0;
  std::uint64_t out = 0;
  // Staggered enqueue/dequeue runs force the indices to wrap the physical
  // array many times; FIFO order must hold throughout.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_enqueue(std::uint64_t{next++}));
    for (int i = 0; i < ((round % 2) ? 3 : 2); ++i) {
      ASSERT_TRUE(ring.try_dequeue(out));
      ASSERT_EQ(out, expect++);
    }
    while (ring.size() > 5) {
      ASSERT_TRUE(ring.try_dequeue(out));
      ASSERT_EQ(out, expect++);
    }
  }
}

TEST(BoundedMpmcRing, MoveOnlyPayloadsMoveThrough) {
  BoundedMpmcRing<std::unique_ptr<int>> ring{2};
  auto p = std::make_unique<int>(42);
  EXPECT_TRUE(ring.try_enqueue(std::move(p)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(ring.try_dequeue(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// Multi-producer / single-consumer: per-producer order must survive (this is
// what keeps one device's captures in submission order through a shard).
TEST(BoundedMpmcRing, PerProducerOrderSurvivesContention) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 1500;
  BoundedMpmcRing<std::uint64_t> ring{16};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t sent = 0; sent < kPerProducer; ++sent) {
        // Tag each value with its producer: high bits = producer id.
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | sent;
        // Full ring: let the consumer run (essential on few-core hosts).
        while (!ring.try_enqueue(std::uint64_t{v})) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::vector<std::uint64_t> count(kProducers, 0);
  std::uint64_t total = 0;
  std::uint64_t out = 0;
  while (total < kProducers * kPerProducer) {
    if (!ring.try_dequeue(out)) {
      std::this_thread::yield();
      continue;
    }
    const std::size_t p = static_cast<std::size_t>(out >> 32);
    const std::uint64_t seq = out & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    if (count[p] > 0) {
      ASSERT_GT(seq, last_seen[p]) << "producer " << p << " reordered";
    }
    last_seen[p] = seq;
    ++count[p];
    ++total;
  }
  for (auto& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(count[p], kPerProducer);
  }
  EXPECT_TRUE(ring.empty());
}

// Multi-producer / multi-consumer: nothing lost, nothing duplicated. This is
// the kDropOldest shape — producers evicting (acting as consumers) while the
// worker drains.
TEST(BoundedMpmcRing, MpmcLosesAndDuplicatesNothing) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 4000;
  BoundedMpmcRing<std::uint64_t> ring{8};

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> checksum{0};
  std::uint64_t expected_sum = 0;

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::uint64_t s = 0; s < kPerProducer; ++s) {
      expected_sum += (static_cast<std::uint64_t>(p) << 32) | s;
    }
    threads.emplace_back([&ring, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | s;
        while (!ring.try_enqueue(std::uint64_t{v})) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t out = 0;
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (!ring.try_dequeue(out)) {
          std::this_thread::yield();
          continue;
        }
        checksum.fetch_add(out, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(checksum.load(), expected_sum);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
