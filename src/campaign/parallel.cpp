#include "campaign/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "campaign/kernel.hpp"
#include "netbase/dcheck.hpp"
#include "netbase/spsc_ring.hpp"

namespace beholder6::campaign {

namespace {

// All std::chrono readings in this file feed WorkerPerf / MergePerf /
// warmup_seconds — wall-clock *cost* telemetry that never influences a
// probe, a reply, or a merge decision, so the determinism contract is
// untouched (the bit-identical gates compare none of these fields).
// beholder6: lint-allow(raw-random): wall-clock cost telemetry only, never result-bearing
using PerfClock = std::chrono::steady_clock;

double secs_since(PerfClock::time_point t0) {
  return std::chrono::duration<double>(PerfClock::now() - t0).count();
}

/// One stealable work unit: a whole (sub)shard. Free-running units are run
/// start-to-finish on whichever worker claims them. Units of an *epoch
/// family* (split children sharing an EpochBarrier) are claimed the same
/// way but run one epoch at a time (the kernel's Scheduler requeues them at
/// each barrier merge). Units are expanded deterministically before any
/// worker starts, so the unit list — like the shard list — is part of the
/// fixed campaign spec, and the claim order never touches results.
struct WorkUnit {
  ProbeSource* source = nullptr;  // borrowed (unsplit) or owned by `owned`
  std::size_t parent = 0;         // index into the shard list
  std::uint32_t subshard = 0;     // canonical index within the parent
  bool record = false;            // stream this unit's replies to the merger
  bool live_sink = false;         // deliver the parent sink per reply, inline
  bool sink_on_merge = false;     // merger delivers the parent sink instead
  bool epoch = false;             // member of an epoch family
};

/// One item of a worker's reply ring. Replies carry their merge timestamp;
/// watermarks promise "no future reply of this unit is earlier than
/// virtual_us" so the merger can advance its frontier past quiet units;
/// done markers retire a unit from frontier gating entirely. Every item of
/// one unit carries a strictly increasing `seq` from the unit's own
/// counter: an epoch unit migrates between workers (and therefore rings)
/// across barriers, so the merger re-serializes its items by seq instead
/// of trusting cross-ring pop order.
struct RingItem {
  enum class Kind : std::uint8_t { kReply, kWatermark, kDone };
  Kind kind = Kind::kReply;
  std::uint32_t unit = 0;
  std::uint64_t seq = 0;
  std::uint64_t virtual_us = 0;
  wire::DecodedReply reply;  // kReply only
};

/// How many ring slots each worker gets. Full ring = producer backpressure
/// (it yields until the merger drains), so this bounds memory, not
/// correctness; WorkerPerf::ring_stalls reports how often it binds.
constexpr std::size_t kRingCapacity = 1024;

/// How many runner steps between watermarks. Watermarks only bound how
/// stale the merger's view of a quiet unit can get — any value is correct;
/// smaller = smoother streaming, larger = less ring traffic.
constexpr std::uint64_t kWatermarkEvery = 1024;

/// Per-worker mutable arena: the worker's private Network replica
/// (constructed once, on first claim, and reset() between the free units
/// it steals — so one worker pays one replica build however many units it
/// runs) plus its perf counters. Cache-line alignment keeps one worker's
/// live counters off its neighbours' lines.
struct alignas(64) WorkerArena {
  std::optional<simnet::Network> net;
  WorkerPerf perf;
};

/// The one unit driver: a unit's runner over its replica plus its reply
/// stream state. A free unit borrows its worker's arena replica and runs
/// start to finish; an epoch unit owns its replica, which outlives the
/// unit's epochs as it migrates between workers (handed over by the
/// scheduler mutex). `ring`/`perf` point at the *current* driving worker's
/// ring and counters — rebound at every claim. Workers share nothing
/// mutable but the scheduler's state (under its mutex) and their own rings.
struct UnitDriver {
  std::unique_ptr<simnet::Network> owned_net;  // epoch units only
  simnet::Network* net = nullptr;
  std::unique_ptr<CampaignRunner> runner;
  netbase::SpscRing<RingItem>* ring = nullptr;
  WorkerPerf* perf = nullptr;
  std::uint32_t unit = 0;
  std::uint64_t seq = 0;    // next ring-item seq for this unit
  std::uint64_t steps = 0;  // steps since the last watermark
  ProbeStats stats;         // final, once the unit exhausts
  simnet::NetworkStats net_stats;

  /// Push one item, yielding while the ring is full (backpressure).
  void push(RingItem::Kind kind, const wire::DecodedReply& reply = {}) {
    const RingItem item{kind, unit, seq++, net->now_us(), reply};
    while (!ring->try_push(item)) {
      ++perf->ring_stalls;
      std::this_thread::yield();
    }
    ++perf->ring_pushes;
  }

  /// Step until exhaustion (true) or, for an epoch unit, its next epoch
  /// pause (false). A recording unit interleaves a watermark every
  /// kWatermarkEvery steps and at each pause, and a done marker at
  /// exhaustion. Free units compile without the per-step pause check.
  template <bool kEpoch>
  bool drive(const ProbeSource& source, bool record) {
    while (!runner->done()) {
      runner->step();
      if (record && ++steps == kWatermarkEvery) {
        steps = 0;
        push(RingItem::Kind::kWatermark);
      }
      if (kEpoch && source.epoch_paused()) {
        // The pause watermark keeps the merger's frontier moving while the
        // family waits for its laggards.
        if (record) push(RingItem::Kind::kWatermark);
        return false;
      }
    }
    if (record) push(RingItem::Kind::kDone);
    return true;
  }
};

/// The merger's view of one recording unit: in-order replies awaiting
/// emission, the re-serialization state (next expected seq + out-of-order
/// holdback, see RingItem::seq), and the frontier bound. Only units with
/// WorkUnit::record participate.
struct UnitBuf {
  std::deque<ShardReply> buf;              // replies, seq == arrival order
  std::map<std::uint64_t, RingItem> held;  // out-of-order items, by seq
  std::uint64_t next_seq = 0;              // first seq not yet serialized
  std::uint64_t lb = 0;  // no future reply is earlier than this
  bool done = false;     // retired from frontier gating
};

}  // namespace

ParallelResult ParallelCampaignRunner::run(const std::vector<Shard>& shards,
                                           ParallelRunOptions options) const {
  ParallelResult result;
  result.per_shard.resize(shards.size());
  result.per_shard_net.resize(shards.size());

  // ---- Deterministic over-decomposition -----------------------------------
  // Expand every shard into work units up front. A split shard's sink
  // cannot run live (its subshards execute concurrently), so such units
  // stream their replies to the merger, which delivers the sink in
  // canonical order from the caller thread. Split children that share an
  // EpochBarrier form an epoch family, scheduled in lockstep epochs.
  std::vector<std::unique_ptr<ProbeSource>> owned;
  std::vector<WorkUnit> units;
  std::vector<Scheduler::Family> families;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    auto children = options.split_factor > 1
                        ? shard.source->split(options.split_factor)
                        : std::vector<std::unique_ptr<ProbeSource>>{};
    if (children.empty()) {
      units.push_back({shard.source, i, 0, options.collect_replies,
                       shard.sink != nullptr, false, false});
      continue;
    }
    // A single-child "split" is still one unit: its sink stays live.
    const bool split = children.size() > 1;
    const bool merge_sink = split && shard.sink != nullptr;
    // Epoch-coupled children all return their family's one barrier; a
    // mixed family would be a broken split() implementation.
    EpochBarrier* barrier = children[0]->epoch_barrier();
    const std::size_t first = units.size();
    std::vector<ProbeSource*> members;
    for (std::uint32_t j = 0; j < children.size(); ++j) {
      members.push_back(children[j].get());
      units.push_back({children[j].get(), i, j,
                       options.collect_replies || merge_sink,
                       !split && shard.sink != nullptr, merge_sink,
                       barrier != nullptr});
      owned.push_back(std::move(children[j]));
    }
    if (barrier != nullptr)
      families.push_back({first, EpochFamily{barrier, std::move(members)}});
  }
  std::vector<UnitDriver> drivers(units.size());

  // ---- The shared immutable tier: warm the route snapshot once -----------
  // Before any worker exists, resolve every route the campaign will hit
  // into one read-only snapshot shared by every replica. Its content is a
  // pure function of the shard list (keys are collected in canonical
  // shard/target order, first seen wins), and after this block it is never
  // written again — which is what lets any number of workers hit it
  // lock-free. route_cache_entries == 0 means "this campaign wants no
  // route caching at all" (the legacy-path benchmark measures exactly
  // that), so it disables the snapshot too.
  std::shared_ptr<const simnet::RouteCache> snapshot;
  if (options.share_route_snapshot && params_->route_cache_entries != 0 &&
      !units.empty()) {
    const auto warm_t0 = PerfClock::now();
    RouteWarmer warmer{pool_size(n_threads_)};
    for (const Shard& shard : shards)
      warmer.add(topo_, shard.endpoint, shard.source->route_warm_targets());
    warmer.resolve(topo_);
    snapshot = warmer.snapshot();
    result.warmed_routes = warmer.routes();
    result.warmup_seconds = secs_since(warm_t0);
  }

  // ---- Worker pool over per-worker arenas and reply rings -----------------
  Scheduler sched{units.size(), std::move(families)};
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(units.size(), pool_size(n_threads_)));

  std::vector<std::uint32_t> rec_units;
  for (std::uint32_t u = 0; u < units.size(); ++u)
    if (units[u].record) rec_units.push_back(u);
  const bool need_merge = !rec_units.empty();

  std::vector<WorkerArena> arenas(workers);
  std::vector<std::unique_ptr<netbase::SpscRing<RingItem>>> rings;
  for (std::size_t w = 0; need_merge && w < workers; ++w)
    rings.push_back(std::make_unique<netbase::SpscRing<RingItem>>(kRingCapacity));

  // Run (or resume) unit `u` on worker `w`: build its runner on first claim
  // — over the worker's arena replica (constructed once, reset() after;
  // the immutable tier makes reset cheap because the warmed routes never
  // leave the shared snapshot) or, for an epoch unit, over a replica of its
  // own — then drive it and record its results once it exhausts.
  auto drive_unit = [&](std::size_t w, std::size_t u) -> bool {
    const auto unit_t0 = PerfClock::now();
    const WorkUnit& unit = units[u];
    const Shard& shard = shards[unit.parent];
    UnitDriver& d = drivers[u];
    WorkerArena& arena = arenas[w];
    if (!d.runner) {
      if (unit.epoch) {
        d.owned_net = std::make_unique<simnet::Network>(topo_, params_);
      } else if (arena.net) {
        arena.net->reset();
      } else {
        arena.net.emplace(topo_, params_);
      }
      d.net = unit.epoch ? d.owned_net.get() : &*arena.net;
      d.net->set_shared_routes(snapshot);  // a reset arena keeps it anyway
      d.unit = static_cast<std::uint32_t>(u);
      d.runner = std::make_unique<CampaignRunner>(*d.net);
      ResponseSink sink = unit.live_sink ? shard.sink : ResponseSink{};
      if (unit.record)
        sink = [&d, live = std::move(sink)](const wire::DecodedReply& r) {
          d.push(RingItem::Kind::kReply, r);
          if (live) live(r);
        };
      d.runner->add(*unit.source, shard.endpoint, shard.pacing, std::move(sink));
    }
    d.ring = need_merge ? rings[w].get() : nullptr;
    d.perf = &arena.perf;
    const bool done = unit.epoch ? d.drive<true>(*unit.source, unit.record)
                                 : d.drive<false>(*unit.source, unit.record);
    if (done) {
      d.stats = d.runner->stats()[0];
      d.net_stats = d.net->stats();
      // Release the unit's runner and any replica of its own at once
      // (runner first — it borrows the network).
      d.runner.reset();
      d.owned_net.reset();
    }
    ++arena.perf.units_run;
    arena.perf.busy_seconds += secs_since(unit_t0);
    return done;
  };

  auto merge = [&] {
    // ---- The streaming merge (caller thread) ----------------------------
    // Drain every worker's ring continuously and emit the canonical
    // (virtual time, shard, subshard, arrival) order incrementally.
    // Units are expanded parent-major, so the unit index order IS the
    // (shard, subshard) lexicographic order and the frontier key is
    // simply (virtual_us, unit).
    //
    // Emission rule: the earliest buffered head may be emitted iff its
    // key is strictly below (lb[w], w) for every recording unit w that
    // is not done and has nothing buffered — any future item of w is at
    // or past that bound, and keys never collide across units (the unit
    // component differs), so nothing earlier can still arrive. The
    // merger never blocks producers: it keeps draining rings even while
    // emission is gated, buffering into unbounded per-unit queues, so a
    // full ring always empties and the pool cannot deadlock.
    const auto merge_t0 = PerfClock::now();
    std::vector<UnitBuf> bufs(units.size());
    std::uint64_t merged = 0;

    auto serialize = [&](const RingItem& item) {
      // Re-serialize per unit by seq: an epoch unit's items can surface
      // from two rings out of order around a barrier migration.
      UnitBuf& b = bufs[item.unit];
      auto apply = [&](const RingItem& it) {
        switch (it.kind) {
          case RingItem::Kind::kReply:
            b.buf.push_back({it.virtual_us,
                             static_cast<std::uint32_t>(units[it.unit].parent),
                             units[it.unit].subshard, it.reply});
            if (it.virtual_us > b.lb) b.lb = it.virtual_us;
            break;
          case RingItem::Kind::kWatermark:
            if (it.virtual_us > b.lb) b.lb = it.virtual_us;
            break;
          case RingItem::Kind::kDone:
            b.done = true;
            break;
        }
        ++b.next_seq;
      };
      if (item.seq != b.next_seq) {
        b.held.emplace(item.seq, item);
        return;
      }
      apply(item);
      for (auto it = b.held.begin();
           it != b.held.end() && it->first == b.next_seq; it = b.held.erase(it))
        apply(it->second);
    };

    auto drain_rings = [&]() -> bool {
      bool any = false;
      RingItem item;
      for (auto& r : rings)
        while (r->try_pop(item)) {
          any = true;
          serialize(item);
        }
      return any;
    };

    auto emit_ready = [&](bool final_flush) {
      for (;;) {
        std::size_t best = units.size();
        for (const auto u : rec_units) {
          if (bufs[u].buf.empty()) continue;
          if (best == units.size() ||
              bufs[u].buf.front().virtual_us <
                  bufs[best].buf.front().virtual_us)
            best = u;  // ties keep the earlier unit: rec_units ascends
        }
        if (best == units.size()) return;
        const auto& head = bufs[best].buf.front();
        const auto gates = [&](std::uint32_t w) {
          return w != best && !bufs[w].done && bufs[w].buf.empty() &&
                 (head.virtual_us > bufs[w].lb ||
                  (head.virtual_us == bufs[w].lb && best > w));
        };
        if (!final_flush && std::any_of(rec_units.begin(), rec_units.end(), gates))
          return;
        const WorkUnit& unit = units[best];
        if (unit.sink_on_merge) shards[unit.parent].sink(head.reply);
        if (options.collect_replies) result.replies.push_back(head);
        ++merged;
        bufs[best].buf.pop_front();
      }
    };

    while (sched.running()) {
      const bool progressed = drain_rings();
      emit_ready(false);
      if (!progressed) {
        const auto idle_t0 = PerfClock::now();
        std::this_thread::yield();
        result.merge_perf.idle_seconds += secs_since(idle_t0);
      }
    }
    // Workers are gone: everything is in the rings or already buffered.
    // This tail is the only non-overlapped merge work.
    const auto tail_t0 = PerfClock::now();
    drain_rings();
    emit_ready(true);
    result.merge_perf.tail_seconds = secs_since(tail_t0);
    result.merge_perf.drain_seconds = secs_since(merge_t0);
    result.merge_perf.replies_merged = merged;
  };
  sched.run(workers, drive_unit,
            need_merge ? std::function<void()>{merge} : nullptr);

  for (std::size_t w = 0; w < arenas.size(); ++w) {
    result.worker_perf.push_back(arenas[w].perf);
    if (w < rings.size()) result.worker_perf[w].ring_high_water = rings[w]->high_water();
  }

  // ---- Canonical-order stats fold ----------------------------------------
  // Units are listed in (parent shard, subshard) order, so one forward
  // fold realizes "subshards fold into their parent in subshard order;
  // parents fold in shard order".
  for (std::size_t u = 0; u < units.size(); ++u) {
    const UnitDriver& d = drivers[u];
    result.per_shard[units[u].parent] += d.stats;
    result.per_shard_net[units[u].parent] += d.net_stats;
    result.elapsed_virtual_us =
        std::max(result.elapsed_virtual_us, d.stats.elapsed_virtual_us);
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    result.probe_stats += result.per_shard[i];
    result.net_stats += result.per_shard_net[i];
  }

#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: the documented total order — (vtime, shard,
  // subshard, arrival) strictly nondecreasing — must hold over the whole
  // streamed merge, exactly as it had to over the old post-hoc sort.
  for (std::size_t r = 1; r < result.replies.size(); ++r) {
    const ShardReply& p = result.replies[r - 1];
    const ShardReply& q = result.replies[r];
    B6_DCHECK2(p.virtual_us < q.virtual_us ||
                   (p.virtual_us == q.virtual_us &&
                    (p.shard < q.shard ||
                     (p.shard == q.shard && p.subshard <= q.subshard))),
               "merged reply stream violates the canonical "
               "(vtime, shard, subshard) order");
  }
#endif
  return result;
}

}  // namespace beholder6::campaign
