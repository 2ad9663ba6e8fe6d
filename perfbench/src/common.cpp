// perfbench/src/common.cpp — shared world and measurement helpers.
#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "seeds/sources.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"

namespace perfbench {

namespace {
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

World::World(double scale) : topo(b6::simnet::TopologyParams{kWorldSeed}) {
  b6::seeds::SeedScale sc;
  sc.scale = scale;
  auto t0 = Clock::now();
  lists = b6::seeds::make_all(topo, sc, kWorldSeed);
  make_all_s = since(t0);
  t0 = Clock::now();
  for (const auto& list : lists) {
    if (list.name == "random") continue;  // Table 7 probes the 8 real lists
    for (const unsigned zn : {48u, 64u}) {
      sets.push_back(b6::target::synthesize_fixediid(
          b6::target::transform_zn(list, zn)));
      sets.back().name = list.name + "-z" + std::to_string(zn);
    }
  }
  synthesize_s = since(t0);
}

std::vector<b6::Ipv6Addr> target_pool(const World& world) {
  std::vector<b6::Ipv6Addr> pool;
  for (const auto& set : world.sets)
    pool.insert(pool.end(), set.addrs.begin(), set.addrs.end());
  return pool;
}

b6::prober::Yarrp6Config table7_cfg(const b6::Ipv6Addr& src,
                                    std::uint64_t permutation_key) {
  b6::prober::Yarrp6Config cfg;
  cfg.src = src;
  cfg.pps = 1000;
  cfg.max_ttl = 16;
  cfg.fill_mode = true;
  cfg.permutation_key = permutation_key;
  return cfg;
}

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  const auto idx = std::min(v.size() - 1, rank);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double tail_quantile(std::size_t n) {
  double q = 0;
  for (double beyond = 0.01; static_cast<double>(n) * beyond >= 10.0;
       beyond /= 10)
    q = 1.0 - beyond;
  return q;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
