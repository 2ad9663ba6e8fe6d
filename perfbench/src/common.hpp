// perfbench/src/common.hpp — what every workload shares: the simulated
// world, the Table 7 campaign configuration, digests and the pass record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/probe_source.hpp"
#include "layers.hpp"
#include "netbase/rng.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/topology.hpp"
#include "target/seedlist.hpp"

namespace perfbench {

/// The paper's world: one fixed topology (seed 20180514, as every bench in
/// the repo uses). The workload seed varies the campaigns run over it.
inline constexpr std::uint64_t kWorldSeed = 20180514;

/// Topology, seed lists and the 16 Table 7 target sets (8 lists × z48/z64).
struct World {
  explicit World(double scale);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  b6::simnet::Topology topo;
  std::vector<b6::target::SeedList> lists;
  std::vector<b6::target::TargetSet> sets;
  double make_all_s = 0;    // seeds::make_all
  double synthesize_s = 0;  // target::transform_zn + synthesize_fixediid
};

/// Every target of every set, in set order (the reactor workloads draw
/// their tenants' target slices from it).
std::vector<b6::Ipv6Addr> target_pool(const World& world);

/// The Table 7 campaign: yarrp6 at pps 1000, 16 TTLs, fill mode.
b6::prober::Yarrp6Config table7_cfg(const b6::Ipv6Addr& src,
                                    std::uint64_t permutation_key);

/// Order-sensitive 64-bit digest.
struct Digest {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  void mix(std::uint64_t v) { h = b6::splitmix64(h ^ v); }
  void mix(const b6::Ipv6Addr& a) {
    mix(a.hi());
    mix(a.lo());
  }
  void mix(const b6::campaign::ProbeStats& s) {
    mix(s.probes_sent);
    mix(s.replies);
    mix(s.fills);
    mix(s.neighborhood_skips);
    mix(s.traces);
    mix(s.elapsed_virtual_us);
  }
  void mix(const b6::wire::DecodedReply& r) {
    mix(r.responder);
    mix(r.probe.target);
    mix((std::uint64_t{r.probe.ttl} << 16) |
        (static_cast<std::uint64_t>(r.type) << 8) | r.code);
    mix(r.rtt_us);
  }
};

/// Seconds from tick `t0` to tick `t` (0 when `t` is earlier), for the
/// ticks() stamps sinks take on every reply to time first and last results.
inline double tick_seconds(std::uint64_t t, std::uint64_t t0) {
  return t > t0 ? static_cast<double>(t - t0) * ns_per_tick() / 1e9 : 0.0;
}

/// What one pass of a workload produced.
struct PassOut {
  double engine_s = 0;  // host time inside the engine calls
  std::uint64_t probes = 0;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Latency samples (float: a waves pass times ~10M steps).
  std::vector<float> step_us, submit_us, last_result_s;
  std::map<std::string, double> layer;           // traced passes only
  std::map<std::string, double> layer_untraced;  // layer metrics only an
                                                 // untraced pass measures
  SiteStats sites{};                             // traced: per-call costs

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<float> v, double q);

/// The highest percentile with at least ten samples beyond it (0.99,
/// 0.999, ...), or 0 when the sample is too small for even p99.
double tail_quantile(std::size_t n);

/// Process high-water resident set size, in MB.
double peak_rss_mb();

/// Worker threads a workload may use: the CPUs this process may run on.
unsigned worker_threads();

}  // namespace perfbench
