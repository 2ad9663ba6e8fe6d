// reactor — multi-tenant campaign service throughput and scheduling
// latency at 1k and 10k concurrent campaigns, with the reactor's two
// determinism contracts run as hard gates:
//
//   * thread invariance — the canonically merged per-tenant stream (and
//     the per-campaign stats) must be bit-identical when the same
//     population is drained at 1, 2 and 8 worker threads;
//   * permutation invariance — resubmitting the same simultaneous batch
//     in a shuffled order must reproduce the stream exactly.
//
// Either mismatch exits nonzero; CI leans on that, not on the numbers.
// Reported per population size: aggregate probes/sec through the serial
// step loop and the p50/p99 *scheduling latency* — the wall-clock cost of
// one step() dispatch (heap pop, slot execution, reschedule), which is
// the service's per-slot overhead and the number that must not grow with
// the number of admitted campaigns. Wall-clock figures are only
// comparable on identical hardware (see the JSON machine stamp); on a
// 1-core host the thread passes still gate determinism but measure
// scheduling overhead, not scaling.
//
// The JSON also records the process's peak RSS (getrusage high-water mark
// over every pass), the memory trajectory of the reactor's per-tenant
// replicas, merged stream and drain buffers.
//
// Usage: bench_reactor [scale] [out.json]   (defaults: 1.0 BENCH_reactor.json)
//        scale multiplies the 1k/10k campaign counts (CI runs 0.1).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "campaign/reactor.hpp"
#include "netbase/rng.hpp"
#include "prober/yarrp6.hpp"

using namespace beholder6;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order-sensitive digest over the canonical merged stream — every field
/// that the bit-identical contract covers.
std::uint64_t stream_digest(const std::vector<campaign::ReactorReply>& merged) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& r : merged) {
    h = splitmix64(h ^ r.slot_us);
    h = splitmix64(h ^ r.tenant);
    h = splitmix64(h ^ r.member);
    h = splitmix64(h ^ r.seq);
    h = splitmix64(h ^ r.local_us);
    h = splitmix64(h ^ Ipv6AddrHash{}(r.reply.responder));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.reply.type));
    h = splitmix64(h ^ r.reply.probe.ttl);
    h = splitmix64(h ^ r.reply.rtt_us);
  }
  return h;
}

std::uint64_t stats_digest(const std::vector<campaign::ProbeStats>& stats) {
  std::uint64_t h = 0;
  for (const auto& s : stats) {
    h = splitmix64(h ^ s.probes_sent);
    h = splitmix64(h ^ s.replies);
    h = splitmix64(h ^ s.elapsed_virtual_us);
  }
  return h;
}

/// One tenant's workload shape; sources are stateful, so each pass
/// rebuilds its sources from these.
struct TenantShape {
  std::uint64_t tenant = 0;
  std::size_t first_target = 0;
  double pps = 0;
  double rate_limit_pps = 0;
};

struct Population {
  std::vector<Ipv6Addr> pool;
  std::vector<TenantShape> shapes;
};

Population make_population(const simnet::Topology& topo, std::size_t n) {
  Population p;
  for (const auto& as : topo.ases()) {
    for (const auto& s : topo.enumerate_subnets(as, 6))
      p.pool.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
    if (p.pool.size() >= 64) break;
  }
  p.pool.resize(std::min<std::size_t>(p.pool.size(), 64));
  for (std::size_t i = 0; i < n; ++i) {
    TenantShape t;
    t.tenant = 1 + i;
    t.first_target = (2 * i) % (p.pool.size() - 1);
    t.pps = 1000 + 250 * static_cast<double>((i * 37) % 7);
    if (i % 4 == 3) t.rate_limit_pps = 800;  // a quarter service-throttled
    p.shapes.push_back(t);
  }
  return p;
}

struct Pass {
  double submit_seconds = 0;
  double drain_seconds = 0;
  std::uint64_t probes = 0;
  std::uint64_t replies = 0;
  std::uint64_t merged_digest = 0;
  std::uint64_t stats_digest = 0;
  std::vector<double> step_us;  // serial pass only

  [[nodiscard]] double pps() const {
    return drain_seconds > 0 ? static_cast<double>(probes) / drain_seconds : 0;
  }
};

/// Run one full pass over the population. `order[i]` names the shape
/// submitted i-th (all submits land before the first step, i.e. at the
/// same virtual instant). threads == 0 runs the serial step() loop with
/// per-dispatch latency sampling; otherwise drain() at that thread count.
Pass run_pass(const simnet::Topology& topo, const Population& p,
              const std::vector<std::size_t>& order, unsigned threads) {
  campaign::ReactorOptions options;
  options.n_threads = std::max(1u, threads);
  campaign::CampaignReactor reactor{topo, {}, options};

  std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
  sources.reserve(p.shapes.size());
  std::vector<campaign::CampaignHandle> handles(p.shapes.size());
  const auto t0 = Clock::now();
  for (const auto i : order) {
    const auto& shape = p.shapes[i];
    prober::Yarrp6Config cfg;
    cfg.src = topo.vantages()[shape.tenant % topo.vantages().size()].src;
    cfg.pps = shape.pps;
    cfg.max_ttl = 4;
    cfg.instance = static_cast<std::uint8_t>(1 + shape.tenant % 200);
    sources.push_back(std::make_unique<prober::Yarrp6Source>(
        cfg, std::span<const Ipv6Addr>(p.pool.data() + shape.first_target, 2)));
    campaign::CampaignSpec spec;
    spec.tenant = shape.tenant;
    spec.source = sources.back().get();
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    spec.rate_limit_pps = shape.rate_limit_pps;
    const auto adm = reactor.submit(spec);
    if (!adm.admitted()) {
      std::fprintf(stderr, "submit rejected for tenant %llu\n",
                   static_cast<unsigned long long>(shape.tenant));
      std::exit(1);
    }
    handles[i] = adm.handle;
  }

  Pass pass;
  pass.submit_seconds = secs_since(t0);
  const auto t1 = Clock::now();
  if (threads == 0) {
    pass.step_us.reserve(1 << 16);
    for (;;) {
      const auto s0 = Clock::now();
      const bool ran = reactor.step();
      if (!ran) break;
      pass.step_us.push_back(secs_since(s0) * 1e6);
    }
  } else {
    reactor.drain();
  }
  pass.drain_seconds = secs_since(t1);

  std::vector<campaign::ProbeStats> stats;
  stats.reserve(handles.size());
  for (const auto& h : handles) stats.push_back(*reactor.stats(h));
  for (const auto& s : stats) {
    pass.probes += s.probes_sent;
    pass.replies += s.replies;
  }
  pass.merged_digest = stream_digest(reactor.merged());
  pass.stats_digest = stats_digest(stats);
  return pass;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = std::min(v.size() - 1,
                            static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

struct ScaleReport {
  std::size_t campaigns = 0;
  double probes_per_sec = 0;
  double p50_sched_us = 0;
  double p99_sched_us = 0;
  double submit_seconds = 0;
  double drain8_seconds = 0;
  std::uint64_t probes = 0;
  std::uint64_t replies = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_reactor.json";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  const simnet::Topology topo{simnet::TopologyParams{}};
  const std::size_t small_n =
      std::max<std::size_t>(20, static_cast<std::size_t>(1000 * scale));
  const std::size_t large_n =
      std::max<std::size_t>(2 * small_n, static_cast<std::size_t>(10000 * scale));

  bool thread_invariant = true;
  bool permutation_invariant = true;
  std::vector<ScaleReport> reports;
  for (const std::size_t n : {small_n, large_n}) {
    const auto population = make_population(topo, n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});

    const auto serial = run_pass(topo, population, order, 0);
    ScaleReport report;
    report.campaigns = n;
    report.probes = serial.probes;
    report.replies = serial.replies;
    report.probes_per_sec = serial.pps();
    report.p50_sched_us = percentile(serial.step_us, 0.50);
    report.p99_sched_us = percentile(serial.step_us, 0.99);
    report.submit_seconds = serial.submit_seconds;
    std::fprintf(stderr,
                 "%zu campaigns: %llu probes, %.0f probes/sec, sched p50 "
                 "%.2fus p99 %.2fus, submit %.3fs\n",
                 n, static_cast<unsigned long long>(serial.probes),
                 report.probes_per_sec, report.p50_sched_us, report.p99_sched_us,
                 serial.submit_seconds);

    // Hard gate 1: merged stream and stats bit-identical at 1/2/8 workers.
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto pass = run_pass(topo, population, order, threads);
      const bool same = pass.merged_digest == serial.merged_digest &&
                        pass.stats_digest == serial.stats_digest;
      std::fprintf(stderr,
                   "  %u threads: %.3fs drain, digest %016llx %s\n", threads,
                   pass.drain_seconds,
                   static_cast<unsigned long long>(pass.merged_digest),
                   same ? "bit-identical to serial step loop" : "MISMATCH (bug!)");
      thread_invariant &= same;
      if (threads == 8) report.drain8_seconds = pass.drain_seconds;
    }

    // Hard gate 2: scheduling never sees submission order. Two shuffles.
    Rng rng{0xb6b6'0000 + n};
    for (int perm = 0; perm < 2; ++perm) {
      std::shuffle(order.begin(), order.end(), rng);
      const auto pass = run_pass(topo, population, order, 1);
      const bool same = pass.merged_digest == serial.merged_digest &&
                        pass.stats_digest == serial.stats_digest;
      std::fprintf(stderr, "  permutation %d: digest %016llx %s\n", perm,
                   static_cast<unsigned long long>(pass.merged_digest),
                   same ? "invariant" : "MISMATCH (bug!)");
      permutation_invariant &= same;
    }
    reports.push_back(report);
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"reactor\",\n");
  std::fprintf(out,
               "  \"workload\": {\"name\": \"concurrent_campaign_service\", "
               "\"scale\": %g, \"targets_per_campaign\": 2, \"max_ttl\": 4, "
               "\"throttled_fraction\": 0.25},\n",
               scale);
  std::fprintf(out,
               "  \"machine\": {\"hardware_threads\": %u, \"note\": \"wall-clock "
               "numbers are comparable only between runs on identical "
               "hardware at the same scale; the determinism gates are "
               "machine-independent\"},\n",
               hw_threads);
  std::fprintf(out, "  \"reactor\": {\n");
  const char* names[2] = {"small", "large"};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    std::fprintf(out,
                 "    \"%s_campaigns\": %zu,\n"
                 "    \"%s_probes\": %llu,\n"
                 "    \"%s_replies\": %llu,\n"
                 "    \"%s_probes_per_sec\": %.0f,\n"
                 "    \"%s_p50_sched_us\": %.3f,\n"
                 "    \"%s_p99_sched_us\": %.3f,\n"
                 "    \"%s_submit_seconds\": %.3f,\n"
                 "    \"%s_drain8_seconds\": %.3f,\n",
                 names[i], r.campaigns, names[i],
                 static_cast<unsigned long long>(r.probes), names[i],
                 static_cast<unsigned long long>(r.replies), names[i],
                 r.probes_per_sec, names[i], r.p50_sched_us, names[i],
                 r.p99_sched_us, names[i], r.submit_seconds, names[i],
                 r.drain8_seconds);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KiB on Linux
  std::fprintf(out, "    \"peak_rss_mb\": %.1f\n",
               static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"determinism\": {\"thread_invariant\": %s, "
               "\"permutation_invariant\": %s}\n",
               thread_invariant ? "true" : "false",
               permutation_invariant ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  if (!thread_invariant || !permutation_invariant) {
    std::fprintf(stderr, "reactor bench: DETERMINISM GATE FAILED\n");
    return 1;
  }
  std::fprintf(stderr, "reactor bench: all determinism gates passed -> %s\n",
               out_path);
  return 0;
}
