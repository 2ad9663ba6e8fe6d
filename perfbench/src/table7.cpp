// perfbench/src/table7.cpp — the Table 7 probing phase through
// ParallelCampaignRunner: table7_sweep and table7_stream_churn.
//
// Both run all 48 yarrp6 campaigns (16 target sets × 3 vantages, pps 1000,
// 16 TTLs, fill mode), each shard feeding a private TraceCollector, one
// thread per CPU. table7_sweep runs whole shards (split_factor 1) with the
// merged stream off, so load imbalance decides its wall time; the
// streaming merge has nothing to do. table7_stream_churn splits every
// shard in four, collects the merged global stream and replays a seeded
// churn schedule, so the merge and the route invalidations dominate.
#include <algorithm>
#include <tuple>
#include <unordered_set>

#include "campaign/parallel.hpp"
#include "simnet/dynamics.hpp"
#include "topology/collector.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Seed-list scale of the target sets. table7_sweep: 68k targets, 3.4M
/// probes a pass. The merge makes a table7_stream_churn probe several
/// times dearer, so it runs the same 48 campaigns over 31k targets (1.6M
/// probes), and a run still holds several passes to take the median of.
constexpr double kSweepScale = 0.15;
constexpr double kStreamChurnScale = 0.1;

void digest_net(Digest& d, const b6::simnet::NetworkStats& n) {
  // Behavioural counters only: the cost counters (route cache, replica
  // builds, dynamics, invalidations) legitimately differ between runs.
  d.mix(n.probes);
  d.mix(n.time_exceeded);
  d.mix(n.echo_replies);
  for (const auto v : n.dest_unreach) d.mix(v);
  d.mix(n.rate_limited);
  d.mix(n.silent_drops);
  d.mix(n.lost_replies);
  d.mix(n.dup_replies);
  d.mix(n.malformed);
}

class Table7 final : public Workload {
 public:
  explicit Table7(bool stream_churn) : stream_churn_(stream_churn) {}

  void setup(std::uint64_t seed) override {
    world_.reset();  // one world alive at a time
    world_ = std::make_unique<World>(stream_churn_ ? kStreamChurnScale
                                                  : kSweepScale);
    const auto& vantages = world_->topo.vantages();
    b6::Rng rng{seed};
    keys_.clear();
    for (std::size_t i = 0; i < world_->sets.size() * vantages.size(); ++i)
      keys_.push_back(rng() | 1);  // each campaign's permutation key
    params_ = {};
    if (stream_churn_) {
      b6::simnet::ChurnParams cp;
      cp.seed = rng();
      cp.horizon_us = 1000000;  // inside every work unit's virtual run
      params_.dynamics = std::make_shared<const b6::simnet::DynamicsSchedule>(
          b6::simnet::make_churn_schedule(world_->topo,
                                          vantages[seed % vantages.size()],
                                          target_pool(*world_), cp));
    }
  }

  [[nodiscard]] std::map<std::string, double> setup_layers() const override {
    return {{"seeds.make_all_s", world_->make_all_s},
            {"target.synthesize_s", world_->synthesize_s}};
  }

  [[nodiscard]] const char* pass_name() const override { return "run"; }

  PassOut pass(Timeline* timeline) override;

 private:
  struct Job {
    b6::prober::Yarrp6Config cfg;
    std::unique_ptr<b6::prober::Yarrp6Source> yarrp;
    std::unique_ptr<TracedSource> traced;
    b6::topology::TraceCollector collector;
    std::uint64_t replies_seen = 0;
    std::uint64_t last_tick = 0;
  };

  void add_layers(const b6::campaign::ParallelResult& result,
                  const std::vector<std::unique_ptr<Job>>& jobs,
                  PassOut& out) const;

  bool stream_churn_;
  std::unique_ptr<World> world_;
  b6::simnet::NetworkParams params_;
  std::vector<std::uint64_t> keys_;
};

PassOut Table7::pass(Timeline* timeline) {
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<b6::campaign::Shard> shards;
  for (const auto& set : world_->sets) {
    for (const auto& vantage : world_->topo.vantages()) {
      auto job = std::make_unique<Job>();
      Job* j = job.get();
      j->cfg = table7_cfg(vantage.src, keys_[jobs.size()]);
      j->yarrp = std::make_unique<b6::prober::Yarrp6Source>(j->cfg, set.addrs);
      b6::campaign::ProbeSource* source = j->yarrp.get();
      b6::campaign::ResponseSink collect =
          [j](const b6::wire::DecodedReply& r) { j->collector.on_reply(r); };
      if (timeline != nullptr) {
        j->traced = std::make_unique<TracedSource>(
            *j->yarrp, Tap{timeline, "shard", jobs.size(), false});
        source = j->traced.get();
        collect = traced_sink(std::move(collect), kCollector);
      }
      auto sink = [j, collect = std::move(collect)](
                      const b6::wire::DecodedReply& r) {
        j->last_tick = ticks();
        ++j->replies_seen;
        collect(r);
      };
      shards.push_back(
          {source, j->cfg.endpoint(), j->cfg.pacing(), std::move(sink)});
      jobs.push_back(std::move(job));
    }
  }

  // At most one thread per CPU: collecting the merged stream makes the
  // caller of run() a thread of its own, draining the workers' rings.
  const unsigned threads = worker_threads();
  const b6::campaign::ParallelCampaignRunner runner{
      world_->topo, params_,
      stream_churn_ ? std::max(1u, threads - 1) : threads};
  b6::campaign::ParallelRunOptions options;
  options.collect_replies = stream_churn_;
  options.split_factor = stream_churn_ ? 4 : 1;
  const auto tick0 = ticks();
  const auto t0 = Clock::now();
  const auto result = runner.run(shards, options);
  PassOut out;
  out.engine_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.probes = result.net_stats.probes;
  // run() admits all 48 campaigns and runs them in one call, so it is both
  // the study's submit and its step. The study's first result arrives when
  // the route warmup ends; that memory-bound phase swings with the host's
  // load about twice as much as the whole run, so it is left to the layer
  // metric campaign.parallel.warmup_s.
  out.step_us.push_back(static_cast<float>(out.engine_s * 1e6));
  out.submit_us.push_back(out.step_us.back());

  // Checks and digest. One operation per shard.
  out.attempted = jobs.size();
  if (result.per_shard.size() != jobs.size() ||
      result.per_shard_net.size() != jobs.size()) {
    out.fail("per-shard results do not match the shard list");
    return out;
  }
  Digest d;
  b6::campaign::ProbeStats stats_sum;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = *jobs[i];
    const auto& ps = result.per_shard[i];
    stats_sum += ps;
    if (ps.probes_sent == 0 || j.replies_seen != ps.replies ||
        ps.probes_sent != result.per_shard_net[i].probes)
      out.fail("shard " + std::to_string(i) + ": sink saw " +
               std::to_string(j.replies_seen) + " replies, stats say " +
               std::to_string(ps.replies));
    d.mix(ps);
    digest_net(d, result.per_shard_net[i]);
    d.mix(j.collector.interfaces().size());
    d.mix(j.collector.traces().size());
    d.mix(j.collector.te_responses());
    d.mix(j.collector.non_te_responses());
    last = std::max(last, j.last_tick);
  }
  // The study's last result ends the run. Per-shard times would hinge on
  // which worker claims which of a few giant shards.
  out.last_result_s.push_back(static_cast<float>(tick_seconds(last, tick0)));
  if (!(stats_sum == result.probe_stats) ||
      result.probe_stats.probes_sent != out.probes)
    out.fail("shard stats do not sum to the campaign totals");
  d.mix(result.elapsed_virtual_us);
  if (stream_churn_) {
    if (result.replies.size() != result.probe_stats.replies)
      out.fail("merged stream holds " + std::to_string(result.replies.size()) +
               " replies, shards delivered " +
               std::to_string(result.probe_stats.replies));
    for (std::size_t i = 0; i < result.replies.size(); ++i) {
      const auto& r = result.replies[i];
      if (i > 0) {
        const auto& p = result.replies[i - 1];
        if (std::tie(p.virtual_us, p.shard, p.subshard) >
            std::tie(r.virtual_us, r.shard, r.subshard)) {
          out.fail("merged stream out of canonical order at " +
                   std::to_string(i));
          break;
        }
      }
      d.mix(r.virtual_us);
      d.mix((std::uint64_t{r.shard} << 32) | r.subshard);
      d.mix(r.reply);
    }
    if (result.net_stats.dynamics_events == 0 ||
        result.net_stats.route_invalidations == 0)
      out.fail("churn schedule was inert");
  }
  out.digest = d.h;
  if (timeline != nullptr) add_layers(result, jobs, out);
  return out;
}

void Table7::add_layers(const b6::campaign::ParallelResult& result,
                        const std::vector<std::unique_ptr<Job>>& jobs,
                        PassOut& out) const {
  // The workers have exited, so every call site's per-thread block is in.
  const auto& sites = out.sites = take_site_stats();
  auto& L = out.layer;
  const double prober_s = add_prober_layers(sites, L);
  const CallStats& collector = sites[kCollector];
  std::unordered_set<b6::Ipv6Addr, b6::Ipv6AddrHash> interfaces;
  for (const auto& j : jobs)
    for (const auto& a : j->collector.interfaces()) interfaces.insert(a);
  L["topology.collector.calls"] = static_cast<double>(collector.calls);
  L["topology.collector.self_s"] = collector.seconds();
  L["topology.interfaces"] = static_cast<double>(interfaces.size());

  double busy_sum = 0, busy_max = 0;
  std::uint64_t units = 0, pushes = 0, stalls = 0, high_water = 0;
  for (const auto& w : result.worker_perf) {
    busy_sum += w.busy_seconds;
    busy_max = std::max(busy_max, w.busy_seconds);
    units += w.units_run;
    pushes += w.ring_pushes;
    stalls += w.ring_stalls;
    high_water = std::max(high_water, w.ring_high_water);
  }
  const double busy_mean =
      busy_sum / static_cast<double>(
                     std::max<std::size_t>(1, result.worker_perf.size()));
  // Split shards deliver to their sinks on the merging caller thread, so
  // only unsplit shards' sink time is part of the workers' busy time.
  const double sink_on_workers = stream_churn_ ? 0.0 : collector.seconds();
  L["engine.busy_s"] = busy_sum;
  L["engine.self_s"] = busy_sum - prober_s - sink_on_workers;
  L["campaign.parallel.warmup_s"] = result.warmup_seconds;
  L["campaign.parallel.warmed_routes"] =
      static_cast<double>(result.warmed_routes);
  L["campaign.parallel.worker_busy_max_s"] = busy_max;
  L["campaign.parallel.worker_busy_mean_s"] = busy_mean;
  L["campaign.parallel.imbalance"] = busy_mean > 0 ? busy_max / busy_mean : 0;
  L["campaign.parallel.units_run"] = static_cast<double>(units);
  L["campaign.parallel.ring_pushes"] = static_cast<double>(pushes);
  L["campaign.parallel.ring_stalls"] = static_cast<double>(stalls);
  L["campaign.parallel.ring_stall_ratio"] =
      pushes > 0 ? static_cast<double>(stalls) / static_cast<double>(pushes)
                 : 0;
  L["campaign.parallel.ring_high_water"] = static_cast<double>(high_water);
  L["campaign.parallel.merge_drain_s"] = result.merge_perf.drain_seconds;
  L["campaign.parallel.merge_tail_s"] = result.merge_perf.tail_seconds;
  L["campaign.parallel.replies_merged"] =
      static_cast<double>(result.merge_perf.replies_merged);

  const auto& n = result.net_stats;
  const auto lookups = n.route_cache_hits + n.route_cache_misses;
  L["simnet.probes"] = static_cast<double>(n.probes);
  L["simnet.response_ratio"] =
      static_cast<double>(result.probe_stats.replies) /
      static_cast<double>(std::max<std::uint64_t>(1, n.probes));
  L["simnet.rate_limited"] = static_cast<double>(n.rate_limited);
  L["simnet.route_hit_ratio"] =
      lookups > 0 ? static_cast<double>(n.route_cache_hits) /
                        static_cast<double>(lookups)
                  : 0;
  L["simnet.route_cache_misses"] = static_cast<double>(n.route_cache_misses);
  L["simnet.route_invalidations"] = static_cast<double>(n.route_invalidations);
  L["simnet.dynamics_events"] = static_cast<double>(n.dynamics_events);
  L["simnet.replica_builds"] = static_cast<double>(n.replica_builds);
}

}  // namespace

std::unique_ptr<Workload> make_table7(bool stream_churn) {
  return std::make_unique<Table7>(stream_churn);
}

}  // namespace perfbench
