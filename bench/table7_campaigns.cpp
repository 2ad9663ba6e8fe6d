// table7_campaigns — reproduces Table 7: full yarrp6 campaigns for every
// target set (each seed list at z48 and z64) from three vantages, reverse
// sorted by interface-address yield. Columns: traces, targets, interface
// addresses (+exclusive), BGP prefixes and ASNs of interfaces (+exclusive),
// reached-target rate, path lengths, EUI-64 share and path offsets.
//
// Scaled-down in absolute numbers (synthetic Internet), but the orderings
// and ratios are the reproduction target.
//
// The (set × vantage) campaigns were always independent (each ran on a
// fresh network), so they run as shards of one ParallelCampaignRunner:
// argv[2] picks the worker thread count (0/default = hardware), which
// changes wall-clock only — rows are bit-identical at any thread count.
// argv[3] picks the split_factor (default 1): each campaign's walk is
// over-decomposed into that many deterministic subshards so a few large
// campaigns can no longer bound the wall-clock. Like shard_count, the
// split factor is part of the campaign spec — rows are thread-count
// invariant at any fixed value (CI's perf-smoke runs a >1 value to guard
// the sub-shard scheduler path).
//
// With split_factor > 1 the bench appends a Doubletree baseline appendix:
// one stop-set campaign over the caida z64 set run twice, at 1 and 2
// worker threads, through the epoch-snapshotted split family — and exits
// nonzero unless the two reports are identical. That is CI's regression
// gate for the EpochBarrier scheduler (Doubletree used to be the one
// source that fell back to whole-shard runs).
#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>

#include "bench/common.hpp"
#include "campaign/parallel.hpp"
#include "netbase/eui64.hpp"
#include "prober/doubletree.hpp"

using namespace beholder6;

namespace {

/// Pooled per-trace metrics, accumulated across campaigns. The top rows of
/// the paper's table (ALL + one per vantage) aggregate every campaign run
/// from that scope, so we pool raw samples rather than collector objects.
struct CampaignRow {
  std::string name;
  campaign::ProbeStats stats;  // pooled via ProbeStats::operator+=
  std::set<Ipv6Addr> targets;
  std::set<Ipv6Addr> interfaces;
  std::set<Prefix> bgp;
  std::set<simnet::Asn> asns;
  std::uint64_t traces_reached = 0;   // responses from inside the target ASN
  std::uint64_t traces_counted = 0;
  std::vector<int> path_lens;         // one per trace
  std::set<Ipv6Addr> eui_ifaces;
  std::vector<int> eui_offsets;       // one per EUI-64 hop observation

  [[nodiscard]] double reached() const {
    return traces_counted == 0 ? 0.0
                               : static_cast<double>(traces_reached) /
                                     static_cast<double>(traces_counted);
  }
  [[nodiscard]] int plen_pct(double q) const {
    if (path_lens.empty()) return 0;
    auto v = path_lens;
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1,
                      static_cast<std::size_t>(q * static_cast<double>(v.size())))];
  }
  [[nodiscard]] int offset_pct(double q) const {
    if (eui_offsets.empty()) return 0;
    auto v = eui_offsets;
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1,
                      static_cast<std::size_t>(q * static_cast<double>(v.size())))];
  }
};

/// Fold one campaign's collector into a row.
void accumulate(CampaignRow& row, const topology::TraceCollector& col,
                const simnet::Topology& topo) {
  for (const auto& [target, tr] : col.traces()) {
    ++row.traces_counted;
    const auto want = topo.origin(target);
    const int plen = tr.path_len();
    row.path_lens.push_back(plen);
    bool reached = false;
    for (const auto& [ttl, hop] : tr.hops) {
      if (want && topo.origin(hop.iface) == want) reached = true;
      if (hop.type == wire::Icmp6Type::kTimeExceeded && is_eui64(hop.iface)) {
        row.eui_ifaces.insert(hop.iface);
        row.eui_offsets.push_back(static_cast<int>(ttl) - plen);
      }
    }
    row.traces_reached += reached;
  }
  for (const auto& iface : col.interfaces()) {
    row.interfaces.insert(iface);
    if (const auto m = topo.bgp().lpm(iface)) {
      row.bgp.insert(m->first);
      row.asns.insert(*m->second);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.6;
  const unsigned n_threads = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 0;
  const std::uint64_t split_factor =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  bench::World world{scale};
  const auto sets = world.all_sets(/*include_random=*/false);
  const auto& vantages = world.topo.vantages();

  // One shard per (set × vantage) campaign; each feeds a shard-private
  // collector on its worker thread.
  struct Job {
    prober::Yarrp6Config cfg;
    std::unique_ptr<prober::Yarrp6Source> source;
    topology::TraceCollector collector;
  };
  std::vector<Job> jobs;
  for (const auto& ns : sets) {
    for (const auto& vantage : vantages) {
      Job job;
      job.cfg = bench::table7_campaign_cfg(vantage.src);
      job.source = std::make_unique<prober::Yarrp6Source>(job.cfg, ns.set.addrs);
      jobs.push_back(std::move(job));
    }
  }
  // Shard sinks hold references into `jobs`, so they are built only after
  // the vector stops growing.
  std::vector<campaign::Shard> shards;
  shards.reserve(jobs.size());
  for (auto& j : jobs)
    shards.push_back({j.source.get(), j.cfg.endpoint(), j.cfg.pacing(),
                      [&j](const wire::DecodedReply& r) { j.collector.on_reply(r); }});
  const campaign::ParallelCampaignRunner runner{world.topo, simnet::NetworkParams{},
                                                n_threads};
  // Rows consume per-shard stats and collectors only — skip the merged
  // global reply stream and its serial sort. (With split_factor > 1 the
  // collectors are fed post-hoc in canonical subshard order.)
  const auto parallel = runner.run(
      shards, {.collect_replies = false, .split_factor = split_factor});
  if (split_factor > 1)
    std::printf("(split_factor %llu: each campaign over-decomposed into "
                "deterministic subshards)\n",
                static_cast<unsigned long long>(split_factor));

  std::vector<CampaignRow> rows;
  CampaignRow all;
  all.name = "ALL";
  std::map<std::string, CampaignRow> by_vantage;

  for (std::size_t si = 0; si < sets.size(); ++si) {
    const auto& ns = sets[si];
    CampaignRow row;
    row.name = ns.seed_name + " z" + std::to_string(ns.zn);
    row.targets.insert(ns.set.addrs.begin(), ns.set.addrs.end());
    for (std::size_t vi = 0; vi < vantages.size(); ++vi) {
      const auto& vantage = vantages[vi];
      const auto job_idx = si * vantages.size() + vi;
      const auto& stats = parallel.per_shard[job_idx];
      const auto& collector = jobs[job_idx].collector;

      auto& vrow = by_vantage[vantage.name];
      vrow.name = vantage.name;
      vrow.stats += stats;
      vrow.targets.insert(ns.set.addrs.begin(), ns.set.addrs.end());
      accumulate(vrow, collector, world.topo);
      all.stats += stats;
      all.targets.insert(ns.set.addrs.begin(), ns.set.addrs.end());
      accumulate(all, collector, world.topo);
      row.stats += stats;
      // Vantage-0 campaigns supply the per-set behavioural metrics, as a
      // single consistent perspective (the paper reports per-set rows from
      // merged campaigns; orderings are unaffected).
      if (vi == 0) {
        accumulate(row, collector, world.topo);
      } else {
        for (const auto& iface : collector.interfaces()) {
          row.interfaces.insert(iface);
          if (const auto m = world.topo.bgp().lpm(iface)) {
            row.bgp.insert(m->first);
            row.asns.insert(*m->second);
          }
        }
      }
    }
    rows.push_back(std::move(row));
  }

  // Exclusive interfaces/ASNs: found by exactly one campaign (set).
  std::map<Ipv6Addr, unsigned> iface_count;
  std::map<simnet::Asn, unsigned> asn_count;
  for (const auto& r : rows) {
    for (const auto& i : r.interfaces) ++iface_count[i];
    for (const auto a : r.asns) ++asn_count[a];
  }

  std::sort(rows.begin(), rows.end(), [](const CampaignRow& a, const CampaignRow& b) {
    return a.interfaces.size() > b.interfaces.size();
  });

  auto h = [](double v) { return bench::human(v); };
  std::printf("Table 7: Aggregate yarrp6 campaigns from three vantages, reverse"
              " sorted by interface yield\n");
  bench::rule('=');
  std::printf("%-14s %8s %8s %8s %7s %6s %6s %6s %7s %11s %13s\n", "Campaign",
              "Traces", "Targets", "IntAddr", "Excl", "BGP", "ASNs", "Reach%",
              "PathLen", "EUI-64", "EUIOffset");
  std::printf("%-14s %8s %8s %8s %7s %6s %6s %6s %7s %11s %13s\n", "", "", "",
              "", "", "", "", "", "p95(med)", "count(%)", "p5(med)");
  bench::rule();

  auto print_row = [&](const CampaignRow& r, bool with_excl) {
    std::size_t excl = 0, excl_asn = 0;
    if (with_excl) {
      for (const auto& i : r.interfaces) excl += iface_count[i] == 1;
      for (const auto a : r.asns) excl_asn += asn_count[a] == 1;
    }
    (void)excl_asn;
    const double eui_frac =
        r.interfaces.empty() ? 0.0
                             : static_cast<double>(r.eui_ifaces.size()) /
                                   static_cast<double>(r.interfaces.size());
    std::printf("%-14s %8s %8s %8s %7s %6s %6s %5.0f%% %4d(%2d) %7s %3.0f%% %6d(%d)\n",
                r.name.c_str(), h(static_cast<double>(r.stats.traces)).c_str(),
                h(static_cast<double>(r.targets.size())).c_str(),
                h(static_cast<double>(r.interfaces.size())).c_str(),
                with_excl ? h(static_cast<double>(excl)).c_str() : "-",
                h(static_cast<double>(r.bgp.size())).c_str(),
                h(static_cast<double>(r.asns.size())).c_str(), 100 * r.reached(),
                r.plen_pct(0.95), r.plen_pct(0.5),
                h(static_cast<double>(r.eui_ifaces.size())).c_str(),
                100 * eui_frac, r.offset_pct(0.05), r.offset_pct(0.5));
  };

  print_row(all, false);
  for (const auto& [name, vrow] : by_vantage) print_row(vrow, false);
  bench::rule();
  for (const auto& r : rows) print_row(r, true);
  bench::rule();
  std::printf(
      "Expected shape (paper): cdn-k32 z64 and tum z64 lead in interfaces and"
      " exclusives, both EUI-64-heavy\n(~39%%/53%%) with EUI hops at/near the"
      " last hop (offsets ~0); caida/fiebig trail; z64 >= z48 per list;\n"
      "the long-premise vantage (US-EDU-2) yields fewer interfaces than the"
      " other two.\n");

  // ---- Doubletree appendix (split_factor > 1 only): the §4.2 baseline ----
  // through the epoch-snapshotted split family, once at 1 and once at 2
  // worker threads. The two reports — probe stats, network stats, and an
  // order-sensitive digest of the merged reply stream — must be identical,
  // or the EpochBarrier scheduler broke its determinism contract.
  if (split_factor > 1) {
    const auto caida = world.synth("caida", 64);
    auto doubletree_report = [&](unsigned threads) {
      prober::DoubletreeConfig cfg;
      cfg.src = vantages[0].src;
      cfg.pps = 1000;
      cfg.max_ttl = 16;
      cfg.start_ttl = 6;
      prober::StopSet stop_set;
      prober::DoubletreeSource source{cfg, caida.set.addrs, stop_set};
      const std::vector<campaign::Shard> shards{
          {&source, cfg.endpoint(), cfg.pacing(), {}}};
      const campaign::ParallelCampaignRunner dt_runner{
          world.topo, simnet::NetworkParams{}, threads};
      const auto result = dt_runner.run(shards, {.split_factor = split_factor});
      const std::uint64_t digest = bench::reply_digest(result.replies);
      struct Report {
        campaign::ProbeStats stats;
        simnet::NetworkStats net;
        std::uint64_t digest;
        std::size_t stop_set_size;
      };
      return Report{result.probe_stats, result.net_stats, digest,
                    stop_set.size()};
    };
    const auto one = doubletree_report(1);
    const auto two = doubletree_report(2);
    const bool identical = one.stats == two.stats && one.net == two.net &&
                           one.digest == two.digest &&
                           one.stop_set_size == two.stop_set_size;
    std::printf("\nDoubletree appendix (caida z64, split_factor %llu): "
                "%llu probes, %llu replies, stop set %zu — 1 vs 2 threads %s\n",
                static_cast<unsigned long long>(split_factor),
                static_cast<unsigned long long>(one.stats.probes_sent),
                static_cast<unsigned long long>(one.stats.replies),
                one.stop_set_size,
                identical ? "identical" : "MISMATCH (bug!)");
    if (!identical) return 1;
  }
  return 0;
}
