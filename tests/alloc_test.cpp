// The zero-allocation serve hot path, proven by counting: this TU includes
// common/alloc_hook.hpp, which REPLACES the global operator new/delete for
// this binary with counting wrappers. The allocation regression test drives
// the worker's per-request wire loop — splitter → parse (arena) → reply
// serialization (pooled buffer) → arena reset — exactly as serve_connection
// does, and asserts the steady state performs ZERO heap allocations per
// request, for both framings. Also the Arena / ArenaAllocator / BufferPool
// unit tests (growth, reset, size classes, lease RAII, stats).
//
// The counting loop here is single-threaded by design: the real server's
// cross-thread handoff (promise/future per request) allocates by necessity,
// so the contract this test locks is the per-request *protocol* path — the
// part the arena and pools made allocation-free.
#include "common/alloc_hook.hpp"  // must be included exactly once per binary

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/features.hpp"
#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "serve/protocol.hpp"

namespace rc = repro::common;
namespace rcl = repro::clfront;
namespace rco = repro::core;
namespace rs = repro::serve;
namespace rb = repro::serve::binary;
namespace hook = repro::common::alloc_hook;

namespace {

// --- Arena ------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  rc::Arena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  // Disjoint: writing one block must not clobber another.
  std::memset(a, 0xAA, 3);
  std::memset(b, 0xBB, 8);
  std::memset(c, 0xCC, 16);
  EXPECT_EQ(static_cast<unsigned char*>(a)[0], 0xAA);
  EXPECT_EQ(static_cast<unsigned char*>(b)[7], 0xBB);
  EXPECT_EQ(static_cast<unsigned char*>(c)[15], 0xCC);
}

TEST(Arena, GrowsPastOneChunkAndTracksPeak) {
  rc::Arena arena;
  // Far past the default chunk: forces chunked growth.
  for (int i = 0; i < 64; ++i) {
    void* p = arena.allocate(1024, 8);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 1024);
  }
  EXPECT_GE(arena.used_bytes(), 64u * 1024u);
  EXPECT_GE(arena.peak_used_bytes(), arena.used_bytes());
  EXPECT_GE(arena.reserved_bytes(), arena.used_bytes());
}

TEST(Arena, ResetReusesMemoryWithoutNewAllocations) {
  rc::Arena arena;
  (void)arena.allocate(32 * 1024, 8);  // establish a large chunk
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  const std::uint64_t before = hook::allocations();
  // Everything after reset fits the retained chunk: no heap traffic.
  for (int i = 0; i < 16; ++i) (void)arena.allocate(1024, 8);
  EXPECT_EQ(hook::allocations() - before, 0u);
  EXPECT_GE(arena.peak_used_bytes(), 32u * 1024u);  // peak survives reset
}

TEST(ArenaAllocator, BacksStdContainersAndFallsBackWithoutArena) {
  rc::Arena arena;
  {
    std::vector<int, rc::ArenaAllocator<int>> v{rc::ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(v[999], 999);
    EXPECT_GT(arena.used_bytes(), 0u);
  }
  // Null-arena allocator: plain heap, still correct.
  std::vector<int, rc::ArenaAllocator<int>> heap_backed;
  for (int i = 0; i < 100; ++i) heap_backed.push_back(i);
  EXPECT_EQ(heap_backed[99], 99);
  // Equality follows the arena identity.
  rc::ArenaAllocator<int> a1(&arena);
  rc::ArenaAllocator<int> a2(&arena);
  rc::ArenaAllocator<int> null1;
  EXPECT_TRUE(a1 == a2);
  EXPECT_FALSE(a1 == null1);
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, LeaseRoundTripReusesCapacity) {
  rc::BufferPool pool;
  const char* probe = nullptr;
  {
    auto lease = pool.acquire(1024);
    lease->assign("hello");
    lease->reserve(1024);
    probe = lease->data();
  }  // returned to the pool, cleared
  auto again = pool.acquire(1024);
  EXPECT_TRUE(again->empty());           // give_back clears content
  EXPECT_GE(again->capacity(), 1024u);   // ... but keeps the capacity
  EXPECT_EQ(again->data(), probe);       // same underlying buffer came back
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(BufferPool, DiscardsBeyondTheClassBound) {
  rc::BufferPool pool(/*max_buffers_per_class=*/2);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    auto c = pool.acquire();
    a->reserve(64);
    b->reserve(64);
    c->reserve(64);
  }  // three give-backs into a class capped at two
  const auto stats = pool.stats();
  EXPECT_EQ(stats.discards, 1u);
  EXPECT_LE(stats.pooled_buffers, 2u);
}

TEST(BufferPool, DetachedLeaseIsAPlainString) {
  rc::BufferPool::Lease detached;  // no pool behind it
  detached->assign("standalone");
  EXPECT_EQ(*detached, "standalone");
}

TEST(BufferPool, SteadyStateAcquireReleaseIsAllocationFree) {
  rc::BufferPool pool;
  { auto warm = pool.acquire(4096); warm->reserve(4096); }
  const std::uint64_t before = hook::allocations();
  for (int i = 0; i < 100; ++i) {
    auto lease = pool.acquire(4096);
    lease->append("x");
  }
  EXPECT_EQ(hook::allocations() - before, 0u);
}

// --- the allocation regression gate -----------------------------------------

/// One decoded-request → serialized-reply cycle, the per-message work of
/// serve_connection + its writer, minus the cross-thread handoff. Returns
/// false on any protocol failure (EXPECTs allocate; keep them outside the
/// counted loop).
bool pump_one(rs::MessageSplitter& splitter, rc::Arena& arena,
              std::string_view wire_bytes, bool binary,
              const rco::Predictor::KernelPrediction& prediction,
              std::string& reply) {
  splitter.feed(wire_bytes);
  bool served = false;
  for (;;) {
    auto next = splitter.next();
    if (!next.ok()) return false;
    if (!next.value().has_value()) break;
    auto request = binary ? rb::parse_request(next.value()->payload)
                          : rs::parse_request(next.value()->payload, &arena);
    if (!request.ok()) return false;
    if (!request.value().features.has_value()) return false;
    reply.clear();
    if (binary) {
      rb::format_prediction_frame_into(reply, request.value().id, prediction);
    } else {
      rs::format_response_into(reply, request.value().id, prediction);
      reply.push_back('\n');
    }
    arena.reset();
    served = true;
  }
  return served;
}

class AllocationRegressionTest : public ::testing::TestWithParam<bool> {};

TEST_P(AllocationRegressionTest, ServeHotPathIsAllocationFreeAtSteadyState) {
  const bool binary = GetParam();

  // A realistic predict request: full feature vector, SSO-sized kernel name.
  rs::WireRequest request;
  request.id = 7;
  request.kind = rs::RequestKind::kPredict;
  request.kernel = "k0";
  std::array<double, rcl::kNumFeatures> counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(i) * 3.25 + 0.5;
  }
  request.features = counts;

  std::string wire_bytes;
  if (binary) {
    wire_bytes = rb::format_request_frame(request);
  } else {
    wire_bytes = rs::format_request(request);
    wire_bytes.push_back('\n');
  }

  // A realistic reply: a kernel name and a handful of Pareto points.
  rco::Predictor::KernelPrediction prediction;
  prediction.kernel = "k0";
  for (int i = 0; i < 6; ++i) {
    rco::PredictedPoint point;
    point.config = {500 + 100 * i, 3505};
    point.speedup = 1.0 + 0.125 * i;
    point.energy = 1.0 - 0.0625 * i;
    point.heuristic = i == 5;
    prediction.pareto.push_back(point);
  }

  rc::BufferPool pool;
  rs::MessageSplitter splitter(1 << 20, &pool);
  rc::Arena arena;
  auto reply_lease = pool.acquire();
  std::string& reply = *reply_lease;

  // Warmup: grows the splitter buffer, the arena chunk, and the reply
  // buffer to their steady-state capacities.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pump_one(splitter, arena, wire_bytes, binary, prediction, reply));
  }

  const std::string expected_reply = reply;
  const std::uint64_t allocs_before = hook::allocations();
  const std::uint64_t frees_before = hook::deallocations();
  bool all_served = true;
  constexpr int kIters = 256;
  for (int i = 0; i < kIters; ++i) {
    all_served &= pump_one(splitter, arena, wire_bytes, binary, prediction, reply);
  }
  const std::uint64_t allocs = hook::allocations() - allocs_before;
  const std::uint64_t frees = hook::deallocations() - frees_before;

  EXPECT_TRUE(all_served);
  EXPECT_EQ(allocs, 0u) << "steady-state serve hot path allocated "
                        << allocs << " times over " << kIters << " requests ("
                        << (binary ? "binary" : "json") << " framing)";
  EXPECT_EQ(frees, 0u);
  EXPECT_EQ(reply, expected_reply) << "pooling changed reply bytes";
}

INSTANTIATE_TEST_SUITE_P(BothFramings, AllocationRegressionTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "binary" : "json";
                         });

// --- featurization: no per-request buffer grows with the source -------------

/// A ~`bytes` translation unit shaped like the serving benchmark's large
/// requests: many small helpers and one kernel, `chain`, calling every
/// seventh of them.
std::string chain_source(std::size_t bytes) {
  std::string source;
  std::size_t n = 0;
  while (source.size() < bytes) {
    const std::string id = std::to_string(n++);
    source += "float helper" + id + "(float v) { /* synthetic filler " + id +
              " */ return v * " + id + ".05f + native_sin(v) - " + id + "; }\n";
  }
  source += "kernel void chain(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (std::size_t i = 0; i < n; i += 7) {
    source += "  v = helper" + std::to_string(i) + "(v);\n";
  }
  source += "  x[get_global_id(0)] = v;\n}\n";
  return source;
}

TEST(FeaturizeAllocationRegressionTest, LargeSourceMakesNoMmapSizedAllocation) {
  // glibc maps every block of at least M_MMAP_THRESHOLD (128 KiB by default)
  // on its own and unmaps it on free, so a worker at the default thresholds
  // faults such a buffer in again on every request. Featurizing must keep
  // its buffers bounded by one function, not grow them with the source.
  constexpr std::size_t kMmapThreshold = std::size_t{128} * 1024;
  const std::string source = chain_source(50 * 1024);
  const rco::FeaturePipeline pipeline(rco::FeatureAssembler(0.0, 1.0, 0.0, 1.0));

  hook::reset_largest_allocation();
  const auto features = pipeline.featurize(source, "chain");
  const std::size_t largest = hook::largest_allocation();

  ASSERT_TRUE(features.ok()) << features.error().message;
  EXPECT_LT(largest, kMmapThreshold)
      << "featurizing a " << source.size() << "-byte source made a " << largest
      << "-byte allocation";
}

}  // namespace
