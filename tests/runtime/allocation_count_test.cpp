// Steady-state allocation counts of the sampling hot path, measured with a
// counting replacement of the global allocation functions (this file is
// its own test executable, so the replacement affects nothing else).
//
//   - A SamplingNode that samples into a reused output vector allocates
//     nothing once its buffers have grown.
//   - A ConcurrentEdgeTree, whose edges recycle their interval
//     messages, stays under 2 allocations per node-interval.
//
// Sanitizer runtimes own operator new, so sanitizer builds leave this
// test out (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "runtime/concurrent_tree.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace approxiot {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<Item> interval_items(Rng& rng, std::size_t n,
                                 std::uint64_t streams) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{SubStreamId{1 + rng.next_below(streams)},
                         rng.next_double(), 0});
  }
  return items;
}

TEST(AllocationCountTest, SamplingNodeIntoReusedOutputAllocatesNothing) {
  core::NodeConfig config;
  config.cost_function = "fraction";
  config.budget.sampling_fraction = 0.3;
  core::SamplingNode node(config);

  // An interior node's Ψ: several weighted multi-stratum bundles.
  Rng rng(7);
  std::vector<core::ItemBundle> psi(4);
  for (core::ItemBundle& bundle : psi) {
    bundle.items = interval_items(rng, 200, 5);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      bundle.w_in.set(SubStreamId{id}, 1.0 + static_cast<double>(id));
    }
  }

  std::vector<core::SampledBundle> out;
  for (int warmup = 0; warmup < 3; ++warmup) node.process_interval(psi, out);
  ASSERT_EQ(out.size(), psi.size());

  const std::uint64_t before = allocations();
  for (int interval = 0; interval < 50; ++interval) {
    node.process_interval(psi, out);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(out[0].item_count(), 0u);
}

TEST(AllocationCountTest, EventsTreeStaysUnderTwoPerNodeInterval) {
  runtime::ConcurrentTreeConfig config;
  config.tree.layer_widths = {64, 16, 4};
  config.tree.sampling_fraction = 0.4;
  config.event_workers = 2;
  runtime::ConcurrentEdgeTree tree(config);

  // One sub-stream per leaf, 20 items each (a small wide tree).
  Rng rng(11);
  std::vector<std::vector<Item>> interval(tree.leaf_count());
  for (std::size_t leaf = 0; leaf < interval.size(); ++leaf) {
    for (int i = 0; i < 20; ++i) {
      interval[leaf].push_back(
          Item{SubStreamId{leaf + 1}, rng.next_double(), 0});
    }
  }

  constexpr int kIntervalsPerWindow = 10;
  auto run_windows = [&](int windows) {
    for (int w = 0; w < windows; ++w) {
      for (int i = 0; i < kIntervalsPerWindow; ++i) {
        tree.push_interval(interval);
      }
      (void)tree.close_window();
    }
  };
  run_windows(3);  // warm-up: buffers, spare messages, Θ storage

  constexpr int kWindows = 10;
  const std::uint64_t before = allocations();
  run_windows(kWindows);
  const double node_intervals = static_cast<double>(
      kWindows * kIntervalsPerWindow * static_cast<int>(tree.node_count()));
  const double per_node_interval =
      static_cast<double>(allocations() - before) / node_intervals;
  EXPECT_LT(per_node_interval, 2.0);
  std::printf("allocations per node-interval: %.3f\n", per_node_interval);
  tree.stop();
}

}  // namespace
}  // namespace approxiot
