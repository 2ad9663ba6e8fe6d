// The zero-allocation claim of the simulated network's fast path, checked
// at runtime: a global operator new/delete hook counts every heap
// allocation made by this binary. A default-params Network (rate limiting
// on) is warmed with one pass of Table-7-shaped yarrp6 probes — a few
// thousand synthesized z64 targets × TTL 1–16, paced at 1000 pps — which
// fills the route cache, the packet pool, the token buckets, the learned
// interfaces and the negative caches. An identical second pass through
// inject_view must then allocate nothing at all.
//
// tools/check_noalloc.py proves the same property statically over the
// call graph; this test is its dynamic counterpart, and it runs in every
// build that runs ctest (sanitizer legs included).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"

// ---- Allocation-counting hook ----------------------------------------------
// Replaces the global allocator for this binary only. Relaxed atomics: the
// counters are read only between phases.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

// GCC pairs the *replaced* operator new with the library free() it can
// see through it and warns about the mismatch; pairing malloc-backed new
// with free-backed delete is exactly the point of the hook.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned variants: alignas(64) route-cache slots and the 2 MB
// huge-page tables (netbase::HugePageAllocator) allocate through these, so
// they must count too or regressions in those paths would be invisible.
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t padded = (n + a - 1) & ~(a - 1);
  if (void* p = std::aligned_alloc(a, padded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace beholder6::simnet {
namespace {

struct Counts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

Counts snapshot() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

/// Table 7's campaign targets in the benches' world (topology seed
/// 20180514): the first `per_list` z64 fixed-IID targets of each of the
/// eight seed lists Table 7 probes, so the window covers every Table 7
/// set rather than one list's corner of the topology.
std::vector<Ipv6Addr> table7_targets(const Topology& topo, std::size_t per_list) {
  seeds::SeedScale sc;
  sc.scale = 0.15;
  std::vector<Ipv6Addr> out;
  for (const auto& list : seeds::make_all(topo, sc, 20180514)) {
    if (list.name == "random") continue;  // not a Table 7 set
    const auto addrs =
        target::synthesize_fixediid(target::transform_zn(list, 64)).addrs;
    out.insert(out.end(), addrs.begin(),
               addrs.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(addrs.size(), per_list)));
  }
  return out;
}

// The hook must really be this binary's allocator, or the zero below would
// prove nothing: every replaced form is counted. Direct operator calls,
// because a new-expression whose result goes unused may be elided.
TEST(SteadyStateAllocTest, HookCountsEveryAllocationForm) {
  constexpr std::align_val_t kLine{64};
  const auto before = snapshot();
  ::operator delete(::operator new(8));
  ::operator delete[](::operator new[](16));
  ::operator delete(::operator new(64, kLine), kLine);
  ::operator delete[](::operator new[](256, kLine), kLine);
  const auto after = snapshot();
  EXPECT_EQ(after.allocations - before.allocations, 4u);
  EXPECT_EQ(after.bytes - before.bytes, 8u + 16u + 64u + 256u);
}

// Warm one full pass, then count heap allocations across an identical
// second pass through inject_view: the steady state must allocate nothing.
TEST(SteadyStateAllocTest, WarmInjectViewPassAllocatesNothing) {
  const Topology topo{TopologyParams{20180514}};
  const auto targets = table7_targets(topo, 500);
  ASSERT_GE(targets.size(), 2000u) << "the workload must be thousands of targets";

  prober::Yarrp6Config cfg;
  cfg.src = topo.vantages()[0].src;
  const auto endpoint = cfg.endpoint();
  std::vector<Packet> probes;
  probes.reserve(targets.size() * 16);
  for (const auto& target : targets)
    for (std::uint8_t ttl = 1; ttl <= 16; ++ttl)
      probes.push_back(campaign::encode_probe_at(endpoint, target, ttl, ttl * 1000));

  Network net{topo};  // default params: rate limiting on
  std::uint64_t replies = 0;
  auto sweep = [&] {
    for (const auto& p : probes) {
      replies += net.inject_view(p).size();
      net.advance_us(1000);
    }
  };
  sweep();  // warm-up: every cache, pool and table reaches steady state

  const auto before = snapshot();
  sweep();  // the measured steady-state window
  const auto after = snapshot();

  EXPECT_EQ(net.stats().probes, 2 * probes.size());
  EXPECT_GT(replies, 0u);
  EXPECT_GT(net.stats().rate_limited, 0u) << "the token buckets must bite";
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << (after.bytes - before.bytes) << " bytes over " << probes.size()
      << " warm probes";
}

}  // namespace
}  // namespace beholder6::simnet
