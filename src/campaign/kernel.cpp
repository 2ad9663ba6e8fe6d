#include "campaign/kernel.hpp"

#include <algorithm>
#include <thread>

#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

std::size_t pool_size(unsigned n_threads) {
  return n_threads != 0 ? n_threads
                        : std::max(1u, std::thread::hardware_concurrency());
}

// ---- EpochFamily ------------------------------------------------------------

EpochFamily::EpochFamily(EpochBarrier* barrier, std::vector<ProbeSource*> members)
    : barrier_(barrier),
      members_(std::move(members)),
      state_(members_.size(), State::kRunning),
      live_(members_.size()),
      waiting_(members_.size()) {
  resumed_.reserve(members_.size());
}

bool EpochFamily::arrive(std::size_t m, bool exhausted) {
  B6_DCHECK(state_[m] == State::kRunning,
            "epoch-family member arrived twice in one epoch — the "
            "EpochBarrier schedule is broken");
  B6_DCHECK(waiting_ > 0, "more barrier arrivals than live family members");
  state_[m] = exhausted ? State::kExhausted : State::kParked;
  if (exhausted) --live_;
  return --waiting_ == 0;
}

std::span<const std::uint32_t> EpochFamily::close() {
  B6_DCHECK(waiting_ == 0, "epoch closed before its last arrival");
  // Every member is parked or exhausted, i.e. quiescent — the
  // single-threaded merge window of the protocol. The merge runs even
  // when the last arrival is the last exhaustion, which is what publishes
  // a Doubletree family's final stop set.
  barrier_->merge_epoch();
  waiting_ = live_;
  resumed_.clear();
  for (std::uint32_t i = 0; i < state_.size(); ++i) {
    if (state_[i] != State::kParked) continue;
    state_[i] = State::kRunning;
    members_[i]->epoch_resume();
    resumed_.push_back(i);
  }
  return resumed_;
}

// ---- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(std::size_t n_units, std::vector<Family> families)
    : family_of_(n_units, -1),
      families_(std::move(families)),
      unfinished_(n_units) {
  for (std::size_t u = 0; u < n_units; ++u) ready_.push_back(u);
  for (std::size_t f = 0; f < families_.size(); ++f)
    for (std::size_t m = 0; m < families_[f].epochs.size(); ++m)
      family_of_[families_[f].first + m] = static_cast<std::int32_t>(f);
}

std::optional<std::size_t> Scheduler::claim() {
  netbase::MutexLock lock{mu_};
  // Explicit wait loop: the guarded reads must sit in this annotated
  // method, not in a wait-predicate lambda (lambda bodies are analyzed as
  // separate functions with no capability context).
  while (ready_.empty() && unfinished_ != 0 && !error_) cv_.wait(lock);
  if (error_ || unfinished_ == 0) return std::nullopt;
  const std::size_t u = ready_.front();
  ready_.pop_front();
  return u;
}

void Scheduler::report(std::size_t u, bool done) {
  Family* closing = nullptr;
  {
    netbase::MutexLock lock{mu_};
    if (done) --unfinished_;
    if (family_of_[u] >= 0) {
      Family& f = families_[static_cast<std::size_t>(family_of_[u])];
      if (f.epochs.arrive(u - f.first, done)) closing = &f;
    }
    if (closing == nullptr) {
      cv_.notify_all();
      return;
    }
  }
  // The epoch's last arrival merges with the mutex released: acquiring it
  // above made every member's writes visible, and no worker touches the
  // family until its survivors are requeued below, so other units keep
  // being claimed while a barrier merges (a reactor window flush runs the
  // tenant's sink here).
  const auto resumed = closing->epochs.close();
  netbase::MutexLock lock{mu_};
  for (const std::uint32_t m : resumed) ready_.push_back(closing->first + m);
  cv_.notify_all();
}

void Scheduler::fail(std::exception_ptr e) {
  netbase::MutexLock lock{mu_};
  if (!error_) error_ = std::move(e);
  failed_.store(true, std::memory_order_release);
  cv_.notify_all();
}

std::exception_ptr Scheduler::error() {
  netbase::MutexLock lock{mu_};
  return error_;
}

void Scheduler::run(std::size_t workers, const Body& body,
                    const std::function<void()>& on_caller) {
  workers = std::max<std::size_t>(1, workers);
  running_.store(workers, std::memory_order_release);
  auto worker = [&](std::size_t w) {
    while (const auto u = claim()) {
      try {
        // report() may run a family's merge_epoch(), which can throw too.
        report(*u, body(w, *u));
      } catch (...) {
        fail(std::current_exception());
        break;
      }
    }
    running_.fetch_sub(1, std::memory_order_release);
  };
  if (!on_caller && workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    if (on_caller) {
      try {
        on_caller();
      } catch (...) {
        fail(std::current_exception());
      }
    }
    for (auto& t : pool) t.join();
  }
  if (const auto e = error()) std::rethrow_exception(e);
}

// ---- RouteWarmer ------------------------------------------------------------

namespace {

simnet::Path path_of(const simnet::Topology& topo,
                     const simnet::Network::ProbeRouteKey& pk) {
  return topo.path(topo.vantages()[pk.vantage_index], pk.dst, pk.flow_variant,
                   pk.next_header);
}

}  // namespace

void RouteWarmer::add(const simnet::Topology& topo, const Endpoint& endpoint,
                      std::span<const Ipv6Addr> targets) {
  for (const auto& target : targets) {
    wire::encode_probe_into(probe_spec_at(endpoint, target, 1, 0), encode_buf_);
    const auto key = simnet::Network::probe_route_key(topo, encode_buf_);
    if (!key || !seen_.insert(key->key).second) continue;
    if (threads_ > 1) {
      keys_.push_back(*key);
    } else {
      insert(key->key, path_of(topo, *key));
    }
  }
}

void RouteWarmer::resolve(const simnet::Topology& topo) {
  if (keys_.empty()) return;
  // One chunk per resolver; the pool runs a single chunk inline.
  const std::size_t chunks =
      std::min<std::size_t>({threads_, keys_.size() / 512 + 1, 64});
  std::vector<simnet::Path> paths(keys_.size());
  Scheduler pool{chunks};
  pool.run(chunks, [&](std::size_t, std::size_t c) {
    for (std::size_t k = keys_.size() * c / chunks;
         k < keys_.size() * (c + 1) / chunks; ++k)
      paths[k] = path_of(topo, keys_[k]);
    return true;
  });
  for (std::size_t k = 0; k < keys_.size(); ++k) insert(keys_[k].key, paths[k]);
  keys_.clear();
}

void RouteWarmer::insert(const simnet::RouteKey& key, const simnet::Path& path) {
  if (!cache_) cache_ = std::make_shared<simnet::RouteCache>();
  (void)cache_->insert(key, path);
  ++routes_;
}

}  // namespace beholder6::campaign
