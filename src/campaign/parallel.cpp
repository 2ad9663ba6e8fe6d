#include "campaign/parallel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

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

/// How many replies the merger emits between two ring drains while workers
/// still run. Any value is correct. It bounds how long the rings go
/// undrained, and it sends the merger back to the running() check often
/// enough that a backlog left when the workers finish goes to the parallel
/// tail instead of being emitted serially.
constexpr std::size_t kEmitBatch = 4096;

/// Thrown by a producer whose ring will never drain again because the run
/// has failed. It never escapes run(): the Scheduler keeps the first error.
struct RunAbandoned final : std::exception {};

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
  const Scheduler* sched = nullptr;
  netbase::SpscRing<RingItem>* ring = nullptr;
  WorkerPerf* perf = nullptr;
  std::uint32_t unit = 0;
  std::uint64_t seq = 0;    // next ring-item seq for this unit
  std::uint64_t steps = 0;  // steps since the last watermark
  ProbeStats stats;         // final, once the unit exhausts
  simnet::NetworkStats net_stats;

  /// Push one item, yielding while the ring is full (backpressure) unless
  /// the run has failed and the merger is gone.
  void push(RingItem::Kind kind, const wire::DecodedReply& reply = {}) {
    const RingItem item{kind, unit, seq++, net->now_us(), reply};
    while (!ring->try_push(item)) {
      if (sched->failed()) throw RunAbandoned{};
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

/// The key of a leaf with nothing to offer the merge: a unit that is done
/// and drained, or one that does not record. No virtual time reaches it.
constexpr std::uint64_t kNoKey = std::numeric_limits<std::uint64_t>::max();

/// A winner tree over keyed leaves. top() is the leaf with the least
/// (key, leaf index) pair, so equal keys go to the lower index; set()
/// replays only that leaf's path to the root, O(log n) per update.
class TournamentTree {
 public:
  explicit TournamentTree(std::vector<std::uint64_t> keys)
      : width_(std::bit_ceil(std::max<std::size_t>(1, keys.size()))),
        key_(std::move(keys)),
        win_(2 * width_) {
    key_.resize(width_, kNoKey);
    for (std::size_t i = 0; i < width_; ++i)
      win_[width_ + i] = static_cast<std::uint32_t>(i);
    for (std::size_t p = width_ - 1; p > 0; --p)
      win_[p] = better(win_[2 * p], win_[2 * p + 1]);
  }

  [[nodiscard]] std::size_t top() const { return win_[1]; }
  [[nodiscard]] std::uint64_t top_key() const { return key_[win_[1]]; }

  void set(std::size_t leaf, std::uint64_t key) {
    if (key_[leaf] == key) return;
    key_[leaf] = key;
    for (std::size_t p = (width_ + leaf) / 2; p > 0; p /= 2)
      win_[p] = better(win_[2 * p], win_[2 * p + 1]);
  }

 private:
  // `a` is always the left child, whose leaves have the lower indexes.
  [[nodiscard]] std::uint32_t better(std::uint32_t a, std::uint32_t b) const {
    return key_[b] < key_[a] ? b : a;
  }

  std::size_t width_;
  std::vector<std::uint64_t> key_;  // per leaf, padded with kNoKey
  std::vector<std::uint32_t> win_;  // [1] root ... [width_ + i] leaf i
};

/// The streaming merge (see run()). The caller thread owns it: it drains
/// the workers' rings and emits the canonical order while they probe, and
/// fans the remainder out once they have joined.
///
/// Units are expanded parent-major, so the unit index order IS the (shard,
/// subshard) order and a reply's merge key is (virtual_us, unit). Each
/// unit is one leaf of a tournament tree keyed by its frontier: its head's
/// virtual time when it has replies buffered, its `lb` (a gate) when it
/// has none and is not done, no key when it is done and drained. The root
/// is then the least of every head and gate key, and a head may be
/// emitted exactly when it is the root: any future item of a gating unit
/// is at or past its (lb, unit) key, and keys never collide across units,
/// so nothing earlier can still arrive.
class StreamMerge {
 public:
  StreamMerge(const std::vector<Shard>& shards,
              const std::vector<WorkUnit>& units, bool collect,
              ParallelResult& result)
      : shards_(shards),
        units_(units),
        collect_(collect),
        result_(result),
        bufs_(units.size()),
        tree_(initial_keys(units)) {
#if BEHOLDER6_DCHECK_LEVEL >= 2
    sink_last_.resize(shards.size());
#endif
  }
  // Its address is captured by the merge loop and the tail's threads.
  StreamMerge(const StreamMerge&) = delete;
  StreamMerge& operator=(const StreamMerge&) = delete;

  /// Pop every ring dry, re-serializing each unit's items. Returns whether
  /// any item arrived.
  bool drain(
      const std::vector<std::unique_ptr<netbase::SpscRing<RingItem>>>& rings) {
    bool any = false;
    RingItem item;
    for (const auto& r : rings)
      while (r->try_pop(item)) {
        any = true;
        serialize(item);
      }
    return any;
  }

  /// Emit while the root is a buffered head, at most `budget` replies.
  /// Returns whether the budget ran out first.
  bool emit(std::size_t budget) {
    for (; budget != 0; --budget) {
      const std::size_t u = tree_.top();
      UnitBuf& b = bufs_[u];
      if (b.buf.empty()) return false;  // the root is a gate, or no key
      if (units_[u].sink_on_merge) deliver(b.buf.front());
      if (collect_) result_.replies.push_back(b.buf.front());
      b.buf.pop_front();
      ++merged_;
      rekey(u);
    }
    return true;
  }

  /// After the workers have joined (and a last drain()): no gate binds and
  /// every buffer is final, so the buffered remainder goes out in one
  /// parallel pass over up to `threads` threads. Each split shard with a
  /// sink is one claim, merging its own subshards' buffers in (virtual_us,
  /// subshard) order — the global order restricted to that shard — while
  /// the caller appends the global stream from the tree. Both sides only
  /// read the buffers, each through its own cursors.
  void tail(std::size_t threads) {
    std::uint64_t left = 0;
    for (std::size_t u = 0; u < units_.size(); ++u) {
      const UnitBuf& b = bufs_[u];
      B6_DCHECK(b.held.empty() && (b.done || !units_[u].record),
                "a recorded unit ended without its done marker or with a "
                "gap in its ring items");
      left += b.buf.size();
    }
    result_.merge_perf.tail_replies = left;
    merged_ += left;
    // The total is known now: one exact reserve instead of a doubling.
    if (collect_) result_.replies.reserve(result_.replies.size() + left);

    // Unit ranges [first, end) of the split shards whose sink the merge
    // delivers; units are parent-major, so each range is contiguous.
    std::vector<std::pair<std::size_t, std::size_t>> sinks;
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (!units_[u].sink_on_merge) continue;
      if (sinks.empty() ||
          units_[sinks.back().first].parent != units_[u].parent)
        sinks.emplace_back(u, u);
      sinks.back().second = u + 1;
    }
    auto deliver_shard = [&](std::size_t, std::size_t s) {
      const auto [first, end] = sinks[s];
      std::vector<std::uint64_t> keys;
      for (std::size_t u = first; u < end; ++u) keys.push_back(key_at(u, 0));
      TournamentTree tree{std::move(keys)};
      std::vector<std::size_t> at(end - first, 0);
      while (tree.top_key() != kNoKey) {
        const std::size_t j = tree.top();
        deliver(bufs_[first + j].buf[at[j]]);
        tree.set(j, key_at(first + j, ++at[j]));
      }
      return true;
    };
    auto append = [&] {
      std::vector<std::size_t> at(units_.size(), 0);
      while (tree_.top_key() != kNoKey) {
        const std::size_t u = tree_.top();
        result_.replies.push_back(bufs_[u].buf[at[u]]);
        tree_.set(u, key_at(u, ++at[u]));
      }
    };
    if (sinks.empty()) {
      if (collect_) append();
      return;
    }
    Scheduler pool{sinks.size()};
    pool.run(std::min(sinks.size(), threads), deliver_shard,
             collect_ ? std::function<void()>{append} : nullptr);
  }

  [[nodiscard]] std::uint64_t merged() const { return merged_; }

 private:
  static std::vector<std::uint64_t> initial_keys(
      const std::vector<WorkUnit>& units) {
    std::vector<std::uint64_t> keys;
    for (const WorkUnit& unit : units) keys.push_back(unit.record ? 0 : kNoKey);
    return keys;
  }

  /// Unit `u`'s key with its cursor at buffer index `i`, once it is done.
  [[nodiscard]] std::uint64_t key_at(std::size_t u, std::size_t i) const {
    const auto& buf = bufs_[u].buf;
    return i < buf.size() ? buf[i].virtual_us : kNoKey;
  }

  void rekey(std::size_t u) {
    const UnitBuf& b = bufs_[u];
    tree_.set(u, !b.buf.empty() ? b.buf.front().virtual_us
                 : b.done       ? kNoKey
                                : b.lb);
  }

  void serialize(const RingItem& item) {
    // Re-serialize per unit by seq: an epoch unit's items can surface
    // from two rings out of order around a barrier migration.
    UnitBuf& b = bufs_[item.unit];
    auto apply = [&](const RingItem& it) {
      switch (it.kind) {
        case RingItem::Kind::kReply:
          b.buf.push_back({it.virtual_us,
                           static_cast<std::uint32_t>(units_[it.unit].parent),
                           units_[it.unit].subshard, it.reply});
          b.lb = std::max(b.lb, it.virtual_us);
          break;
        case RingItem::Kind::kWatermark:
          b.lb = std::max(b.lb, it.virtual_us);
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
    rekey(item.unit);
  }

  /// Hand one reply to its split shard's sink. One thread at a time per
  /// shard: the caller while workers run, then the shard's tail claim.
  void deliver(const ShardReply& r) {
#if BEHOLDER6_DCHECK_LEVEL >= 2
    const std::pair key{r.virtual_us, r.subshard};
    B6_DCHECK2(sink_last_[r.shard] <= key,
               "split shard's sink delivery violates the canonical "
               "(vtime, subshard) order");
    sink_last_[r.shard] = key;
#endif
    shards_[r.shard].sink(r.reply);
  }

  const std::vector<Shard>& shards_;
  const std::vector<WorkUnit>& units_;
  bool collect_;
  ParallelResult& result_;
  std::vector<UnitBuf> bufs_;
  TournamentTree tree_;
  std::uint64_t merged_ = 0;
#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Per shard, the last (virtual_us, subshard) its sink was handed.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sink_last_;
#endif
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

  const bool need_merge = std::any_of(
      units.begin(), units.end(), [](const WorkUnit& u) { return u.record; });

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
    d.sched = &sched;
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

  // ---- The streaming merge (caller thread) ------------------------------
  // Drain every worker's ring continuously and emit the canonical
  // (virtual time, shard, subshard, arrival) order incrementally, in
  // bounded batches so the rings and the running() check are never far
  // away. The merger never blocks producers: it keeps draining rings even
  // while emission is gated, buffering into unbounded per-unit queues, so
  // a full ring always empties and the pool cannot deadlock.
  StreamMerge merger{shards, units, options.collect_replies, result};
  const auto merge_t0 = PerfClock::now();
  auto merge = [&] {
    while (sched.running()) {
      const bool drained = merger.drain(rings);
      if (!merger.emit(kEmitBatch) && !drained) {
        const auto idle_t0 = PerfClock::now();
        std::this_thread::yield();
        result.merge_perf.idle_seconds += secs_since(idle_t0);
      }
    }
  };
  sched.run(workers, drive_unit,
            need_merge ? std::function<void()>{merge} : nullptr);
  if (need_merge) {
    // The workers have joined: everything is in the rings or buffered.
    // This tail is the only merge work the probing does not overlap.
    const auto tail_t0 = PerfClock::now();
    merger.drain(rings);
    merger.tail(pool_size(n_threads_));
    result.merge_perf.tail_seconds = secs_since(tail_t0);
    result.merge_perf.drain_seconds = secs_since(merge_t0);
    result.merge_perf.replies_merged = merger.merged();
  }

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
