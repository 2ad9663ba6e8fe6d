// campaign/kernel.hpp — the drain kernel under both parallel engines.
//
// ParallelCampaignRunner::run and CampaignReactor::submit/drain share
// three pieces of machinery, each written once here:
//
//   * Scheduler — the worker pool: a FIFO of claimable work units,
//     epoch-family units requeued by their barrier merge, fail-fast
//     first-error capture and rethrow, and the only place in src/campaign/
//     that spawns and joins a std::thread.
//   * EpochFamily — EpochBarrier arrival bookkeeping: live and waiting
//     counts, the arrive-once-per-epoch DCHECK, the last arrival's single
//     merge_epoch() call, and resuming the parked survivors.
//   * RouteWarmer — the shared read-only route snapshot: route-key
//     recovery from probe wire bytes, dedup, fork-join path resolution
//     through the pool, and grow-only insertion in first-seen order.
//
// What stays in the engines is how work becomes units: the runner steals
// (sub)shards and drives epoch families across workers; the reactor claims
// coupled campaigns whole, in admission order, and steals the members of a
// free split campaign, coupled into a Scheduler::Family whose barrier is
// the reactor's window flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "campaign/runner.hpp"
#include "netbase/annotated_mutex.hpp"
#include "netbase/flat_map.hpp"
#include "netbase/rng.hpp"
#include "simnet/route_cache.hpp"

namespace beholder6::campaign {

/// Worker count for an engine knob: 0 means the hardware concurrency.
std::size_t pool_size(unsigned n_threads);

/// Epoch-barrier arrival bookkeeping for one split family (the protocol on
/// EpochBarrier). Not synchronized itself: a Scheduler calls arrive()
/// under its mutex and close() after releasing it (the runner's families
/// and the reactor's windows), the reactor's whole-campaign units both
/// from the one thread driving the campaign — either way every member is
/// quiescent when the family merges.
class EpochFamily {
 public:
  EpochFamily() = default;
  /// `members` in canonical order, all returning `barrier`.
  EpochFamily(EpochBarrier* barrier, std::vector<ProbeSource*> members);

  /// Member `m` paused at its epoch boundary, or exhausted. True for the
  /// epoch's last live arrival: every member is now parked or exhausted,
  /// and the caller must close() the epoch before any member runs again.
  [[nodiscard]] bool arrive(std::size_t m, bool exhausted);

  /// The last arrival's merge window: run merge_epoch(), epoch_resume()
  /// every parked member and return their indexes in canonical order for
  /// the caller to reschedule. The span is valid until the next close().
  std::span<const std::uint32_t> close();

  [[nodiscard]] EpochBarrier* barrier() const { return barrier_; }
  [[nodiscard]] std::size_t size() const { return state_.size(); }
  /// True while member `m` waits at the barrier.
  [[nodiscard]] bool parked(std::size_t m) const {
    return m < state_.size() && state_[m] == State::kParked;
  }

 private:
  enum class State : std::uint8_t { kRunning, kParked, kExhausted };
  EpochBarrier* barrier_ = nullptr;
  std::vector<ProbeSource*> members_;
  std::vector<State> state_;
  std::size_t live_ = 0;     // members not yet exhausted
  std::size_t waiting_ = 0;  // live members not yet arrived this epoch
  std::vector<std::uint32_t> resumed_;
};

/// The worker pool: a FIFO of claimable unit indexes plus the epoch-family
/// bookkeeping, everything mutable guarded by one mutex. Free units leave
/// the queue once; family units cycle through it once per epoch, requeued
/// at the back by their family's barrier merge — the fairness rule: every
/// unit already waiting runs before a family's next epoch. The claim order
/// never touches results (free units are independent; family merges are
/// ordered by the barrier protocol, not by arrival).
///
/// The B6_GUARDED_BY annotations make the Clang thread-safety pass (CI
/// `thread-safety` job) prove that every touch of the queue, the family
/// state and the error slot happens under the mutex — save one: the
/// epoch's last arrival runs its family's close() (the barrier merge) with
/// the mutex released, when every member is parked or exhausted and none
/// is queued, so no other worker can reach that family. Per-unit state in
/// the engines deliberately stays outside: exactly one worker owns a unit
/// between claim() and report(), and the mutex hand-off in those two calls
/// is what publishes its writes to the next claimant — a transfer the
/// analysis cannot express, so the contract lives here in words instead.
class Scheduler {
 public:
  /// Units [first, first + epochs.size()) coupled into an epoch family,
  /// unit first + m being member m.
  struct Family {
    std::size_t first = 0;
    EpochFamily epochs;
  };

  /// `n_units` units, all claimable from the start in index order.
  explicit Scheduler(std::size_t n_units, std::vector<Family> families = {});

  /// Returns whether the claimed unit is exhausted (false: paused at its
  /// family's epoch barrier).
  using Body = std::function<bool(std::size_t worker, std::size_t unit)>;

  /// Drive every unit to exhaustion over `workers` threads, `body` running
  /// each claim on worker slot 0..workers-1. `on_caller`, when set, runs on
  /// the calling thread meanwhile (the streaming merge) and may poll
  /// running(); without it a single worker runs inline on the caller. The
  /// first exception a body or `on_caller` throws stops further claims and
  /// is rethrown here once every worker has joined.
  void run(std::size_t workers, const Body& body,
           const std::function<void()>& on_caller = {});

  /// True until every worker of run() has exited its claim loop.
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire) != 0;
  }

  /// True once a body or `on_caller` has thrown: a worker waiting on the
  /// caller (a full reply ring) must give up rather than wait forever.
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

 private:
  std::optional<std::size_t> claim() B6_EXCLUDES(mu_);
  void report(std::size_t u, bool done) B6_EXCLUDES(mu_);
  void fail(std::exception_ptr e) B6_EXCLUDES(mu_);
  [[nodiscard]] std::exception_ptr error() B6_EXCLUDES(mu_);

  std::vector<std::int32_t> family_of_;  // per unit, -1 = free; immutable
  std::atomic<std::size_t> running_{0};
  std::atomic<bool> failed_{false};

  netbase::Mutex mu_;
  netbase::CondVar cv_;
  std::deque<std::size_t> ready_ B6_GUARDED_BY(mu_);
  std::vector<Family> families_ B6_GUARDED_BY(mu_);
  std::size_t unfinished_ B6_GUARDED_BY(mu_);
  std::exception_ptr error_ B6_GUARDED_BY(mu_);
};

/// FlatSet hasher for route keys (warmup dedup).
struct RouteKeyHash {
  std::size_t operator()(const simnet::RouteKey& k) const {
    return static_cast<std::size_t>(splitmix64(k.cell ^ splitmix64(k.meta)));
  }
};

/// Builds the shared read-only route snapshot both engines hand to every
/// replica. One probe encode per (endpoint, target) recovers the exact
/// RouteKey every probe to that target resolves under — the wire format
/// keeps the transport bytes that feed the ECMP flow hash per-target
/// constant (the paper's checksum fudge), so ttl 1 at time 0 stands in for
/// the whole trace. Entries are exactly what Topology::path returns and are
/// never rewritten, so the snapshot is a pure performance tier: it changes
/// hit rates, never a reply. Routes enter in first-seen order, so the
/// layout is deterministic. Grow-only across calls; the control plane must
/// not grow it while replicas probe.
class RouteWarmer {
 public:
  /// With `threads` > 1, add() queues routes for one fork-join resolve();
  /// with 1 it resolves each new route on the spot and holds no queue.
  explicit RouteWarmer(std::size_t threads = 1) : threads_(threads) {}

  /// Warm (or queue) every route (endpoint, targets) resolves under that
  /// no earlier call has seen.
  void add(const simnet::Topology& topo, const Endpoint& endpoint,
           std::span<const Ipv6Addr> targets);

  /// Resolve the queued routes over up to `threads` workers through the
  /// pool once there are enough to amortize them (Topology::path is const
  /// and internally synchronized), inline below that, and insert them.
  void resolve(const simnet::Topology& topo);

  /// The snapshot, null until the first route is inserted.
  [[nodiscard]] std::shared_ptr<const simnet::RouteCache> snapshot() const {
    return cache_;
  }
  /// Routes inserted so far.
  [[nodiscard]] std::uint64_t routes() const { return routes_; }

 private:
  void insert(const simnet::RouteKey& key, const simnet::Path& path);

  std::size_t threads_;
  netbase::FlatSet<simnet::RouteKey, RouteKeyHash> seen_;
  std::vector<simnet::Network::ProbeRouteKey> keys_;  // queued, first-seen order
  std::vector<std::uint8_t> encode_buf_;
  std::shared_ptr<simnet::RouteCache> cache_;
  std::uint64_t routes_ = 0;
};

}  // namespace beholder6::campaign
