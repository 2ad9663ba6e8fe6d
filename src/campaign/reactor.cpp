#include "campaign/reactor.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

namespace {

/// Canonical merged-stream order: (slot_us, tenant, member, seq). The key
/// is unique — seq is monotone per (tenant, member) — so this is a strict
/// total order and any drain mode sorting by it produces one stream.
bool merged_less(const ReactorReply& a, const ReactorReply& b) {
  if (a.slot_us != b.slot_us) return a.slot_us < b.slot_us;
  if (a.tenant != b.tenant) return a.tenant < b.tenant;
  if (a.member != b.member) return a.member < b.member;
  return a.seq < b.seq;
}

/// A parallel drain's window over a free split campaign, in send gaps of
/// its pacing rate. Each window costs one barrier round-trip through the
/// scheduler and bounds the replies held per member to one window's
/// worth. On perfbench service_elephant (4 hardware threads, three runs
/// each) 1,024 gave 3.1–3.6M probes/s, 4,096 gave 3.3–3.8M, and 16,384
/// gave 3.6–3.7M at 3–4 MB more peak RSS.
constexpr double kWindowSlots = 4096;

}  // namespace

/// One free split campaign's window under a parallel drain(): the campaign
/// is a Scheduler::Family over its live members' units and this is the
/// family's EpochBarrier. Each member runs its slots due before `end_us`
/// into its own buffer, then pauses; the kernel calls merge_epoch() once
/// every member has paused or exhausted — on the last one's worker, with
/// all of them quiescent — and requeues the paused ones at the back of the
/// FIFO, behind every unit already waiting. The members' sources are
/// free-running, so the family's epoch_resume() calls on them do nothing.
struct CampaignReactor::Window final : EpochBarrier {
  Campaign* campaign = nullptr;
  std::vector<std::uint32_t> members;              // canonical order
  std::vector<std::vector<ReactorReply>> buffers;  // per member, this window
  std::vector<std::size_t> heads;                  // merge cursors
  std::uint64_t span_us = 0;
  std::uint64_t end_us = 0;  // members run the slots due before this
  bool collect = false;
  std::vector<ReactorReply> records;  // the flushed stream, when collected

  /// Open the next window at the lowest live member due.
  void advance() {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint32_t mi : members)
      if (const auto local = campaign->members[mi].runner->next_due_us())
        lo = std::min(lo, campaign->start_us + *local);
    end_us = lo + std::min(span_us, std::numeric_limits<std::uint64_t>::max() - lo);
  }

  /// The window flush: every slot due before end_us has run and every
  /// later one has not, so merging the buffers in (slot_us, member, seq)
  /// order delivers exactly the serial step() loop's sequence for this
  /// stretch of the tenant's virtual time.
  void merge_epoch() override {
    heads.assign(buffers.size(), 0);
    const ReactorReply* last = nullptr;
    for (;;) {
      std::size_t best = buffers.size();
      for (std::size_t j = 0; j < buffers.size(); ++j) {
        if (heads[j] == buffers[j].size()) continue;
        // Strict less: on equal dues the lower member, listed first, wins.
        if (best == buffers.size() ||
            buffers[j][heads[j]].slot_us < buffers[best][heads[best]].slot_us)
          best = j;
      }
      if (best == buffers.size()) break;
      const ReactorReply& r = buffers[best][heads[best]++];
      B6_DCHECK2(last == nullptr || merged_less(*last, r),
                 "window flush out of (slot_us, member, seq) order");
      last = &r;
      if (campaign->spec.sink) campaign->spec.sink(r.reply);
      if (collect) records.push_back(r);
    }
    for (auto& b : buffers) b.clear();
    advance();
  }
};

CampaignReactor::CampaignReactor(const simnet::Topology& topo,
                                 simnet::NetworkParams params,
                                 ReactorOptions options)
    : topo_(topo),
      params_(std::make_shared<const simnet::NetworkParams>(std::move(params))),
      options_(options) {}

CampaignReactor::~CampaignReactor() = default;

// ---- Admission --------------------------------------------------------------

Admission CampaignReactor::submit(const CampaignSpec& spec) {
  if (spec.source == nullptr || spec.pacing.pps <= 0.0)
    return {AdmitResult::kRejectedBadSpec, {}};
  if (tenant_index_.find(spec.tenant) != tenant_index_.end())
    return {AdmitResult::kRejectedDuplicateTenant, {}};
  if (active_ + 1 > options_.max_campaigns)
    return {AdmitResult::kRejectedCampaignLimit, {}};
  if (spec.probe_budget > options_.max_reserved_probes - reserved_)
    return {AdmitResult::kRejectedBudgetLimit, {}};

  // Grow the shared snapshot before any member exists: every replica of
  // this (and any later) campaign starts with these routes hot.
  // route_cache_entries == 0 turns all route caching off, snapshot included.
  // The warmer resolves inline (one thread): a fork-join would hold every
  // route of a large submit twice over, and the service's memory ceiling
  // matters more than one submit's latency.
  if (params_->route_cache_entries != 0)
    warmer_.add(topo_, spec.endpoint, spec.source->route_warm_targets());

  auto owner = std::make_unique<Campaign>();
  Campaign& c = *owner;
  c.spec = spec;
  c.index = static_cast<std::uint32_t>(campaigns_.size());
  c.nonce = static_cast<std::uint64_t>(campaigns_.size()) + 1;
  c.start_us = now_us_;
  c.throttled = spec.rate_limit_pps > 0.0;
  if (c.throttled)
    c.bucket = simnet::TokenBucket{spec.rate_limit_pps,
                                   std::max(1.0, spec.rate_limit_burst)};

  // Members: the source whole, or its split children as one campaign. An
  // epoch-coupled family (shared barrier) is the second EpochBarrier
  // client after the parallel backend, driven with the same protocol.
  std::vector<std::unique_ptr<ProbeSource>> children;
  if (spec.split_factor > 1) children = spec.source->split(spec.split_factor);
  const std::size_t n_members = children.empty() ? 1 : children.size();
  c.members.resize(n_members);
  std::vector<ProbeSource*> sources;
  for (std::size_t i = 0; i < n_members; ++i) {
    Member& m = c.members[i];
    if (children.empty()) {
      m.source = spec.source;
    } else {
      m.owned = std::move(children[i]);
      m.source = m.owned.get();
    }
    sources.push_back(m.source);
    m.net = std::make_unique<simnet::Network>(topo_, params_);
    m.net->set_shared_routes(warmer_.snapshot());
    m.runner = std::make_unique<CampaignRunner>(*m.net);
    Campaign* cp = &c;
    const auto mi = static_cast<std::uint32_t>(i);
    m.runner->add(*m.source, spec.endpoint, spec.pacing,
                  [cp, mi](const wire::DecodedReply& r) {
                    Member& mm = cp->members[mi];
                    if (mm.out != nullptr)
                      mm.out->push_back({mm.slot_due, cp->spec.tenant, mi,
                                         mm.next_seq, mm.net->now_us(), r});
                    ++mm.next_seq;
                    if (!mm.defer_sink && cp->spec.sink) cp->spec.sink(r);
                  });
  }
  if (EpochBarrier* b = children.empty() ? nullptr : sources[0]->epoch_barrier())
    c.family = EpochFamily{b, std::move(sources)};
  c.live = static_cast<std::uint32_t>(n_members);

  // Seed every member's first global slot.
  for (std::uint32_t i = 0; i < c.members.size(); ++i)
    reschedule_member(c, i, [&](std::uint32_t mi, std::uint64_t due) {
      push_global(c, mi, due);
    });

  tenant_index_.emplace(spec.tenant, c.index);
  ++active_;
  reserved_ += spec.probe_budget;
  campaigns_.push_back(std::move(owner));
  return {AdmitResult::kAdmitted, {spec.tenant, c.nonce}};
}

// ---- Handle lookup and control ops ------------------------------------------

CampaignReactor::Campaign* CampaignReactor::find(CampaignHandle h) const {
  if (h.nonce == 0 || h.nonce > campaigns_.size()) return nullptr;
  Campaign* c = campaigns_[h.nonce - 1].get();
  return c->spec.tenant == h.tenant ? c : nullptr;
}

bool CampaignReactor::pause(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || c->state != CampaignState::kRunning) return false;
  c->state = CampaignState::kPaused;
  for (Member& m : c->members) {
    if (!m.in_heap) continue;  // parked or exhausted; nothing to pull
    // due_global already holds the slot's due; the heap copy goes stale.
    m.in_heap = false;
    ++m.gen;
    --pending_;
  }
  return true;
}

bool CampaignReactor::resume(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || c->state != CampaignState::kPaused) return false;
  c->state = CampaignState::kRunning;
  for (std::uint32_t i = 0; i < c->members.size(); ++i) {
    Member& m = c->members[i];
    if (m.runner->done() || c->family.parked(i)) continue;
    push_global(*c, i, m.due_global);  // the saved due: global-time shift only
  }
  return true;
}

bool CampaignReactor::cancel(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || (c->state != CampaignState::kRunning &&
                       c->state != CampaignState::kPaused))
    return false;
  retire(*c, CampaignState::kCancelled);
  settle(*c);
  return true;
}

void CampaignReactor::retire(Campaign& c, CampaignState state) {
  c.state = state;
  for (Member& m : c.members) {
    if (m.in_heap) {
      m.in_heap = false;
      --pending_;
    }
    ++m.gen;  // stale-out any heap copy, global or campaign-local
  }
}

void CampaignReactor::settle(Campaign& c) {
  if (c.settled) return;
  if (c.state == CampaignState::kRunning || c.state == CampaignState::kPaused)
    return;
  c.settled = true;
  B6_DCHECK(active_ > 0, "settling a campaign the ledger never admitted");
  --active_;
  reserved_ -= c.spec.probe_budget;  // cancel refunds the in-flight remainder
  const auto it = tenant_index_.find(c.spec.tenant);
  if (it != tenant_index_.end() && it->second == c.index)
    tenant_index_.erase(it);
}

// ---- The scheduling core ----------------------------------------------------

void CampaignReactor::push_global(Campaign& c, std::uint32_t mi,
                                  std::uint64_t due) {
  Member& m = c.members[mi];
  m.due_global = due;
  queue_.push(GSlot{due, c.spec.tenant, mi, c.index, m.gen});
  m.in_heap = true;
  ++pending_;
}

template <typename PushFn>
void CampaignReactor::reschedule_member(Campaign& c, std::uint32_t mi,
                                        PushFn&& push) {
  Member& m = c.members[mi];
  const auto local = m.runner->next_due_us();
  B6_DCHECK(local.has_value(), "rescheduling an exhausted runner");
  std::uint64_t due = c.start_us + *local;
  // The service throttle defers the *global* slot only; the local clock
  // (and with it every reply) is untouched — per-tenant byte-identity.
  if (c.throttled) due = std::max(due, c.bucket.ready_at_us(due));
  m.due_global = due;
  push(mi, due);
}

std::uint64_t CampaignReactor::step_member(Member& m, std::uint64_t slot_due) {
  m.slot_due = slot_due;
  (void)m.runner->step();
  const std::uint64_t sent = m.runner->stats()[0].probes_sent;
  const std::uint64_t delta = sent - m.probes_seen;
  m.probes_seen = sent;
  return delta;
}

template <typename PushFn>
void CampaignReactor::run_slot(Campaign& c, std::uint32_t mi,
                               std::uint64_t slot_due,
                               std::vector<ReactorReply>* out, PushFn&& push) {
  Member& m = c.members[mi];
  m.out = out;
  const std::uint64_t delta = step_member(m, slot_due);
  m.out = nullptr;

  // Account this step's probes against the tenant's bucket and budget, at
  // the slot's own due time — tenant-local arithmetic only, which is what
  // keeps a parallel drain's per-campaign replay exact.
  c.probes_sent += delta;
  if (c.throttled && delta != 0)
    c.bucket.debit(static_cast<double>(delta), slot_due);
  if (c.spec.probe_budget != 0 && c.probes_sent >= c.spec.probe_budget) {
    retire(c, CampaignState::kBudgetExhausted);
    return;
  }

  const bool exhausted = m.runner->done();
  if (exhausted) {
    B6_DCHECK(c.live > 0, "member exhausted twice");
    --c.live;
    if (c.live == 0 && c.state == CampaignState::kRunning)
      c.state = CampaignState::kFinished;
  }
  if (c.family.barrier() != nullptr && (exhausted || m.source->epoch_paused())) {
    // Barrier arrival (an exhaustion counts); the last one resumes the
    // parked survivors at their own runner-local dues.
    if (c.family.arrive(mi, exhausted))
      for (const std::uint32_t i : c.family.close()) reschedule_member(c, i, push);
  } else if (!exhausted) {
    reschedule_member(c, mi, push);
  }
}

bool CampaignReactor::step() {
  while (!queue_.empty()) {
    const GSlot s = queue_.top();
    queue_.pop();
    Campaign& c = *campaigns_[s.campaign];
    Member& m = c.members[s.member];
    if (s.gen != m.gen) continue;  // paused, cancelled, or retired: stale
    m.in_heap = false;
    --pending_;
    if (s.due_us > now_us_) now_us_ = s.due_us;
    run_slot(c, s.member, s.due_us, options_.collect_merged ? &merged_ : nullptr,
             [&](std::uint32_t mi, std::uint64_t due) { push_global(c, mi, due); });
    merged_dirty_ = true;
    settle(c);
    return true;
  }
  return false;
}

// ---- Drains -----------------------------------------------------------------

std::size_t CampaignReactor::drain() {
  const std::size_t workers = pool_size(options_.n_threads);
  if (workers <= 1) {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }
  // Claimable work, in admission order. Campaigns are scheduling-
  // independent (every scheduling input is tenant-local), so each becomes
  // units of its own:
  //   * a free split campaign — unthrottled, unbudgeted, no EpochBarrier —
  //     one unit per live member, coupled into a Window family: its
  //     members share nothing but the tenant sink, which the window flush
  //     feeds in the serial order;
  //   * any other campaign one whole unit, driven off a campaign-local
  //     heap that reproduces exactly the member interleaving the global
  //     heap would have given it — (due, tenant, member) decides on (due,
  //     member) within one tenant. Coupled members stay together because
  //     the order of their bucket debits, budget checks and barrier merges
  //     decides their results.
  struct Unit {
    std::uint32_t campaign = 0;
    std::vector<std::uint32_t> seeds;  // detached members, dues in due_global
    Window* window = nullptr;          // member units: the campaign's window
    std::uint32_t pos = 0;             // member units: index in the window
    std::uint64_t max_due = 0;
    std::uint64_t probes = 0;          // member units: probes sent
    std::size_t slots = 0;
    std::vector<ReactorReply> records;
  };
  std::vector<Unit> units;
  std::deque<Window> windows;
  std::vector<Scheduler::Family> families;
  for (const auto& owner : campaigns_) {
    Campaign& c = *owner;
    if (c.state != CampaignState::kRunning) continue;
    Unit u;
    u.campaign = c.index;
    for (std::uint32_t i = 0; i < c.members.size(); ++i) {
      Member& m = c.members[i];
      if (!m.in_heap) continue;
      // Detach from the global heap: the campaign now lives on workers.
      m.in_heap = false;
      ++m.gen;
      --pending_;
      u.seeds.push_back(i);
    }
    if (u.seeds.empty()) continue;
    const bool free = c.members.size() > 1 && !c.throttled &&
                      c.spec.probe_budget == 0 && c.family.barrier() == nullptr;
    if (!free) {
      units.push_back(std::move(u));
      continue;
    }
    Window& w = windows.emplace_back();
    w.campaign = &c;
    w.members = u.seeds;
    w.buffers.resize(w.members.size());
    w.span_us = static_cast<std::uint64_t>(
        std::max(1.0, kWindowSlots * 1e6 / c.spec.pacing.pps));
    w.collect = options_.collect_merged;
    w.advance();
    std::vector<ProbeSource*> sources;
    for (std::uint32_t j = 0; j < w.members.size(); ++j) {
      Unit mu;
      mu.campaign = c.index;
      mu.window = &w;
      mu.pos = j;
      units.push_back(std::move(mu));
      sources.push_back(c.members[w.members[j]].source);
    }
    families.push_back({units.size() - w.members.size(),
                        EpochFamily{&w, std::move(sources)}});
  }
  if (units.empty()) return 0;

  Scheduler pool{units.size(), std::move(families)};
  pool.run(std::min(workers, units.size()), [&](std::size_t, std::size_t ui) {
    Unit& u = units[ui];
    Campaign& c = *campaigns_[u.campaign];
    if (u.window != nullptr) {
      // One window of one free member: run its slots due before the
      // window end into its buffer, then pause (or report exhaustion).
      Member& m = c.members[u.window->members[u.pos]];
      m.out = &u.window->buffers[u.pos];
      m.defer_sink = true;
      while (const auto local = m.runner->next_due_us()) {
        const std::uint64_t due = c.start_us + *local;
        if (due >= u.window->end_us) break;
        u.max_due = std::max(u.max_due, due);
        u.probes += step_member(m, due);
        ++u.slots;
      }
      m.out = nullptr;
      m.defer_sink = false;
      return m.runner->done();
    }
    SlotHeap heap;
    auto push = [&](std::uint32_t mi, std::uint64_t due) {
      heap.push(GSlot{due, c.spec.tenant, mi, c.index, c.members[mi].gen});
    };
    for (const std::uint32_t mi : u.seeds) push(mi, c.members[mi].due_global);
    while (!heap.empty()) {
      const GSlot s = heap.top();
      heap.pop();
      if (s.gen != c.members[s.member].gen) continue;  // retired mid-drive
      u.max_due = std::max(u.max_due, s.due_us);
      run_slot(c, s.member, s.due_us,
               options_.collect_merged ? &u.records : nullptr, push);
      ++u.slots;
    }
    return true;
  });

  // Post-join, back on the control plane: merge records (any append order —
  // merged() sorts canonically), account the free members' probes and
  // exhaustions (their campaign's shared fields are never written by a
  // worker), advance the clock to the latest slot run, and settle
  // retirements in campaign index order.
  std::size_t slots = 0;
  merged_dirty_ = true;  // as after any step()
  for (Unit& u : units) {
    Campaign& c = *campaigns_[u.campaign];
    merged_.insert(merged_.end(), u.records.begin(), u.records.end());
    if (u.window != nullptr) {
      c.probes_sent += u.probes;
      B6_DCHECK(c.members[u.window->members[u.pos]].runner->done(),
                "a free member left the drain unexhausted");
      B6_DCHECK(c.live > 0, "member exhausted twice");
      if (--c.live == 0) c.state = CampaignState::kFinished;
    }
    now_us_ = std::max(now_us_, u.max_due);
    settle(c);
    slots += u.slots;
  }
  for (const Window& w : windows)
    merged_.insert(merged_.end(), w.records.begin(), w.records.end());
  return slots;
}

// ---- Observation ------------------------------------------------------------

std::optional<CampaignState> CampaignReactor::state(CampaignHandle h) const {
  const Campaign* c = find(h);
  if (c == nullptr) return std::nullopt;
  return c->state;
}

std::optional<ProbeStats> CampaignReactor::stats(CampaignHandle h) const {
  const Campaign* c = find(h);
  if (c == nullptr) return std::nullopt;
  ProbeStats sum;
  for (const Member& m : c->members) sum += m.runner->stats()[0];
  return sum;
}

void CampaignReactor::sort_merged() {
  if (!merged_dirty_) return;
  merged_dirty_ = false;
  std::sort(merged_.begin(), merged_.end(), merged_less);
#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: per-(tenant, member) seq must be strictly increasing
  // in canonical order — a violation means two drain modes could not agree.
  for (std::size_t i = 1; i < merged_.size(); ++i) {
    const auto& a = merged_[i - 1];
    const auto& b = merged_[i];
    if (a.tenant == b.tenant && a.member == b.member)
      B6_DCHECK2(a.seq < b.seq, "merged stream: non-monotone per-member seq");
  }
#endif
}

const std::vector<ReactorReply>& CampaignReactor::merged() {
  sort_merged();
  return merged_;
}

void CampaignReactor::reset() {
  campaigns_.clear();
  tenant_index_.clear();
  queue_ = {};
  pending_ = 0;
  now_us_ = 0;
  active_ = 0;
  reserved_ = 0;
  merged_.clear();
  merged_dirty_ = false;
  // The warmed snapshot, its dedup set, and warmed_routes_ survive: the
  // immutable perf tier carries across runs, exactly like Network::reset().
}

}  // namespace beholder6::campaign
