// perfbench/src/reactor.cpp — the CampaignReactor workloads.
//
// service_waves: 10k tenants admitted in waves into one reactor driven by
// the serial step() loop — a closed loop on one thread. 90% are Table 7
// yarrp6 campaigns of 64 targets, 10% Doubletree families split in two
// (the EpochBarrier path), a quarter throttled; a fixed subset is paused,
// resumed and cancelled mid-run, and every tenant streams binary records
// through io::StreamingTraceSink. It is the only workload through io,
// Doubletree and the control plane, and step cost grows with the working
// set of tenant replicas.
//
// service_elephant: drain() at one worker per CPU over one elephant — a
// yarrp6 campaign over 100k targets, split_factor 4 as part of its spec —
// and 3,000 64-target mice. drain() claims whole campaigns, so the
// elephant runs serially on one worker: where sub-campaign stealing would
// show, and where it could cost the mice their turnaround.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <streambuf>

#include "campaign/reactor.hpp"
#include "io/trace_io.hpp"
#include "prober/doubletree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using b6::campaign::CampaignReactor;
using b6::campaign::CampaignState;

/// Seed-list scale of the world the tenants draw targets from (198k).
constexpr double kScale = 0.3;
constexpr std::size_t kTenantTargets = 64;

double secs(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

std::uint8_t instance_of(std::uint64_t tenant) {
  return static_cast<std::uint8_t>(1 + tenant % 200);
}

/// A stream buffer that digests and counts the bytes written to it and
/// keeps none: a tenant's output "file" without the disk.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf() { setp(buf_, buf_ + sizeof buf_); }
  /// Fold the buffered tail into the digest and return it.
  std::uint64_t finish() {
    consume();
    d_.mix(bytes_);
    return d_.h;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    consume();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void consume() {
    const auto n = static_cast<std::size_t>(pptr() - pbase());
    for (std::size_t i = 0; i < n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf_ + i, std::min<std::size_t>(8, n - i));
      d_.mix(w);
    }
    bytes_ += n;
    setp(buf_, buf_ + sizeof buf_);
  }

  char buf_[512];
  Digest d_;
  std::uint64_t bytes_ = 0;
};

/// Admission-side counters both reactor workloads report.
struct Admissions {
  CallStats submits;
  std::uint64_t rejected = 0;
  std::uint64_t members = 0;  // one Network replica each
  std::size_t active_max = 0;
};

/// Submit `spec`, timing the call; false (and a failed op) if refused.
bool submit_timed(CampaignReactor& reactor,
                  const b6::campaign::CampaignSpec& spec, Admissions& adm,
                  PassOut& out, b6::campaign::CampaignHandle& handle) {
  ++out.attempted;
  const auto t0 = now_ns();
  const auto admission = reactor.submit(spec);
  const auto ns = now_ns() - t0;
  adm.submits.add(ns);
  out.submit_us.push_back(static_cast<float>(ns) / 1e3f);
  if (!admission.admitted()) {
    ++adm.rejected;
    out.fail("submit rejected for tenant " + std::to_string(spec.tenant));
    return false;
  }
  adm.members += std::max<std::uint64_t>(1, spec.split_factor);
  handle = admission.handle;
  return true;
}

/// The layer metrics both reactor workloads share. Returns the prober
/// self time spent while probing (see add_prober_layers).
double add_reactor_layers(const CampaignReactor& reactor,
                          const Admissions& adm, std::uint64_t replies,
                          PassOut& out) {
  const auto& sites = out.sites = take_site_stats();
  auto& L = out.layer;
  const double probing_s = add_prober_layers(sites, L);
  L["campaign.reactor.submit.calls"] = static_cast<double>(adm.submits.calls);
  // split() runs inside submit(); it is the prober's time, not the reactor's.
  L["campaign.reactor.submit.self_s"] =
      adm.submits.seconds() - sites[kSplit].seconds();
  L["campaign.reactor.warmed_routes"] =
      static_cast<double>(reactor.warmed_routes());
  L["campaign.reactor.admitted"] =
      static_cast<double>(out.attempted - adm.rejected);
  L["campaign.reactor.rejected"] = static_cast<double>(adm.rejected);
  L["campaign.reactor.active_max"] = static_cast<double>(adm.active_max);
  // The reactor keeps its tenants' NetworkStats private: probes and the
  // response ratio come from ProbeStats, replicas from the admitted specs.
  L["simnet.probes"] = static_cast<double>(out.probes);
  L["simnet.response_ratio"] =
      static_cast<double>(replies) /
      static_cast<double>(std::max<std::uint64_t>(1, out.probes));
  L["simnet.replica_builds"] = static_cast<double>(adm.members);
  return probing_s;
}

// ---- service_waves ---------------------------------------------------------

constexpr std::size_t kWaveTenants = 10000;
constexpr std::size_t kWaves = 10;
constexpr std::uint64_t kWaveGapUs = 50000;  // virtual time between waves

class ServiceWaves final : public Workload {
 public:
  void setup(std::uint64_t seed) override;
  [[nodiscard]] std::map<std::string, double> setup_layers() const override {
    return {{"seeds.make_all_s", world_->make_all_s},
            {"target.synthesize_s", world_->synthesize_s}};
  }
  [[nodiscard]] const char* pass_name() const override { return "waves"; }
  [[nodiscard]] bool warm_up() const override { return false; }
  PassOut pass(Timeline* timeline) override;

 private:
  /// One tenant's spec, drawn at setup.
  struct Shape {
    std::uint64_t tenant = 0;
    std::size_t wave = 0;
    std::size_t vantage = 0;
    std::size_t first_target = 0;
    std::uint64_t key = 0;
    bool doubletree = false;
    bool throttled = false;
    std::size_t pause_wave = 0;   // 0: never paused
    std::size_t cancel_wave = 0;  // 0: never cancelled
  };
  /// One tenant's live state for a pass.
  struct Tenant {
    explicit Tenant(const Shape& s) : shape(&s) {}
    const Shape* shape;
    std::unique_ptr<b6::campaign::ProbeSource> source;
    std::unique_ptr<b6::prober::StopSet> stop_set;
    std::unique_ptr<TracedSource> traced;
    b6::campaign::CampaignSpec spec;
    DigestBuf buf;
    std::ostream os{&buf};
    b6::io::StreamingTraceSink sink{
        os, b6::io::StreamingTraceSink::Format::kBinary};
    b6::campaign::CampaignHandle handle;
    std::uint64_t last_tick = 0;  // ticks() at the latest reply
  };

  std::unique_ptr<Tenant> make_tenant(const Shape& s,
                                      Timeline* timeline) const;

  std::unique_ptr<World> world_;
  std::vector<b6::Ipv6Addr> pool_;
  std::vector<Shape> shapes_;
};

void ServiceWaves::setup(std::uint64_t seed) {
  world_.reset();
  world_ = std::make_unique<World>(kScale);
  pool_ = target_pool(*world_);
  b6::Rng rng{seed};
  std::vector<std::size_t> order(kWaveTenants);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  shapes_.assign(kWaveTenants, {});
  for (std::size_t rank = 0; rank < kWaveTenants; ++rank) {
    Shape& s = shapes_[order[rank]];
    s.tenant = 1 + order[rank];
    s.wave = rank / (kWaveTenants / kWaves);
    s.vantage = rng() % world_->topo.vantages().size();
    s.first_target = rng() % (pool_.size() - kTenantTargets);
    s.key = rng() | 1;
  }
  // Kinds and control-plane subsets, each drawn as a seeded share.
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < kWaveTenants; ++i) {
    shapes_[order[i]].doubletree = i < kWaveTenants / 10;
    shapes_[order[i]].throttled = i % 4 == 0;
  }
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t paused = 0, cancelled = 0;
  for (const auto i : order) {
    Shape& s = shapes_[i];
    if (s.wave + 3 >= kWaves) continue;  // resumed two waves after pausing
    if (paused < kWaveTenants / 100) {
      s.pause_wave = s.wave + 1;
      ++paused;
    } else if (cancelled < kWaveTenants / 100) {
      s.cancel_wave = s.wave + 2;
      ++cancelled;
    }
  }
}

std::unique_ptr<ServiceWaves::Tenant> ServiceWaves::make_tenant(
    const Shape& s, Timeline* timeline) const {
  auto t = std::make_unique<Tenant>(s);
  const auto& src = world_->topo.vantages()[s.vantage].src;
  const std::span<const b6::Ipv6Addr> targets(pool_.data() + s.first_target,
                                              kTenantTargets);
  auto& spec = t->spec;
  spec.tenant = s.tenant;
  if (s.doubletree) {
    b6::prober::DoubletreeConfig cfg;
    cfg.src = src;
    cfg.pps = 1000;
    cfg.max_ttl = 16;
    cfg.window = 8;  // several epochs per 32-target child
    cfg.instance = instance_of(s.tenant);
    t->stop_set = std::make_unique<b6::prober::StopSet>();
    t->source = std::make_unique<b6::prober::DoubletreeSource>(
        cfg, targets, *t->stop_set);
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    spec.split_factor = 2;
  } else {
    auto cfg = table7_cfg(src, s.key);
    cfg.instance = instance_of(s.tenant);
    t->source = std::make_unique<b6::prober::Yarrp6Source>(cfg, targets);
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
  }
  spec.source = t->source.get();
  if (timeline != nullptr) {
    t->traced = std::make_unique<TracedSource>(
        *t->source, Tap{timeline, "tenant", s.tenant, true});
    spec.source = t->traced.get();
  }
  if (s.throttled) spec.rate_limit_pps = 800;
  Tenant* tp = t.get();
  b6::campaign::ResponseSink io = [tp](const b6::wire::DecodedReply& r) {
    tp->sink(r);
  };
  if (timeline != nullptr) io = traced_sink(std::move(io), kIoSink);
  spec.sink = [tp, io = std::move(io)](const b6::wire::DecodedReply& r) {
    tp->last_tick = ticks();
    io(r);
  };
  return t;
}

PassOut ServiceWaves::pass(Timeline* timeline) {
  // Tenants first: the reactor keeps pointers to their sources and sinks,
  // so it must be destroyed before them.
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<std::vector<Tenant*>> by_wave(kWaves);
  for (const Shape& s : shapes_) {
    tenants.push_back(make_tenant(s, timeline));
    by_wave[s.wave].push_back(tenants.back().get());
  }
  b6::campaign::ReactorOptions options;
  options.collect_merged = false;
  CampaignReactor reactor{world_->topo, {}, options};

  PassOut out;
  out.step_us.reserve(12'000'000);
  Admissions adm;
  CallStats steps, pauses, resumes, cancels;
  using ControlOp = bool (CampaignReactor::*)(b6::campaign::CampaignHandle);
  auto control = [&](CallStats& calls, ControlOp op, const Tenant& t) {
    const auto t0 = now_ns();
    const bool ok = (reactor.*op)(t.handle);
    calls.add(now_ns() - t0);
    if (!ok)
      out.fail("control call refused for tenant " +
               std::to_string(t.shape->tenant));
  };
  // Step until the global clock reaches `until` or nothing is runnable.
  auto step_until = [&](std::uint64_t until) {
    const auto loop0 = Clock::now();
    auto t0 = loop0;
    while (reactor.now_us() < until) {
      const bool ran = reactor.step();
      const auto t1 = Clock::now();
      if (!ran) break;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          t1 - t0);
      out.step_us.push_back(static_cast<float>(ns.count()) / 1e3f);
      steps.add(static_cast<std::uint64_t>(ns.count()));
      t0 = t1;
    }
    out.engine_s += secs(loop0, Clock::now());
  };

  const auto tick0 = ticks();
  for (std::size_t w = 0; w < kWaves; ++w) {
    const auto wave0 = now_ns();
    if (w > 0) step_until(w * kWaveGapUs);
    for (const auto& t : tenants) {
      const Shape& s = *t->shape;
      if (w > 0 && s.pause_wave == w)
        control(pauses, &CampaignReactor::pause, *t);
      if (s.pause_wave > 0 && s.pause_wave + 2 == w)
        control(resumes, &CampaignReactor::resume, *t);
      if (w > 0 && s.cancel_wave == w)
        control(cancels, &CampaignReactor::cancel, *t);
    }
    for (Tenant* t : by_wave[w])
      submit_timed(reactor, t->spec, adm, out, t->handle);
    adm.active_max = std::max(adm.active_max, reactor.active_campaigns());
    if (timeline != nullptr)
      timeline->add({"wave " + std::to_string(w), "wave", w, wave0, now_ns(),
                     thread_lane(), false});
  }
  const auto tail0 = now_ns();
  step_until(~std::uint64_t{0});
  if (timeline != nullptr)
    timeline->add({"drain to idle", "wave", kWaves, tail0, now_ns(),
                   thread_lane(), false});

  // Checks and digest, in tenant order. Last result: per finished tenant,
  // the time from the start of the pass to its final reply.
  Digest d;
  std::uint64_t io_bytes = 0, replies = 0;
  for (const auto& t : tenants) {
    const auto& s = *t->shape;
    const auto state = reactor.state(t->handle);
    const auto stats = reactor.stats(t->handle);
    if (!state || !stats) {
      out.fail("tenant " + std::to_string(s.tenant) + " has no state");
      continue;
    }
    const auto want = s.cancel_wave > 0 ? CampaignState::kCancelled
                                        : CampaignState::kFinished;
    if (*state != want || t->sink.written() != stats->replies)
      out.fail("tenant " + std::to_string(s.tenant) + ": state " +
               std::to_string(static_cast<int>(*state)) + ", " +
               std::to_string(t->sink.written()) + " records for " +
               std::to_string(stats->replies) + " replies");
    out.probes += stats->probes_sent;
    replies += stats->replies;
    io_bytes += t->buf.bytes();
    d.mix(s.tenant);
    d.mix(static_cast<std::uint64_t>(*state));
    d.mix(*stats);
    d.mix(t->buf.finish());
    if (want == CampaignState::kFinished)
      out.last_result_s.push_back(
          static_cast<float>(tick_seconds(t->last_tick, tick0)));
  }
  out.digest = d.h;
  const double tail_q = tail_quantile(out.step_us.size());
  out.layer_untraced["campaign.reactor.step_tail_us"] =
      percentile(out.step_us, tail_q);
  out.layer_untraced["campaign.reactor.step_tail_q"] = tail_q;
  if (timeline == nullptr) return out;

  const double probing_s = add_reactor_layers(reactor, adm, replies, out);
  const CallStats& io = out.sites[kIoSink];
  // Inside step(), the reactor, runner, simnet and wire cannot be told
  // apart from outside: that remainder is both the step's self time and
  // the engine's.
  const double step_self = steps.seconds() - probing_s - io.seconds();
  auto& L = out.layer;
  L["io.sink.calls"] = static_cast<double>(io.calls);
  L["io.sink.self_s"] = io.seconds();
  L["io.bytes"] = static_cast<double>(io_bytes);
  L["engine.busy_s"] = steps.seconds();
  L["engine.self_s"] = step_self;
  L["campaign.reactor.step.calls"] = static_cast<double>(steps.calls);
  L["campaign.reactor.step.self_s"] = step_self;
  L["campaign.reactor.pause.calls"] = static_cast<double>(pauses.calls);
  L["campaign.reactor.pause.self_s"] = pauses.seconds();
  L["campaign.reactor.resume.calls"] = static_cast<double>(resumes.calls);
  L["campaign.reactor.resume.self_s"] = resumes.seconds();
  L["campaign.reactor.cancel.calls"] = static_cast<double>(cancels.calls);
  L["campaign.reactor.cancel.self_s"] = cancels.seconds();
  return out;
}

// ---- service_elephant ------------------------------------------------------

constexpr std::size_t kElephantTargets = 100000;
constexpr std::uint64_t kElephantSplit = 4;  // spec, never derived from nproc
constexpr std::size_t kMice = 3000;

class ServiceElephant final : public Workload {
 public:
  void setup(std::uint64_t seed) override;
  [[nodiscard]] std::map<std::string, double> setup_layers() const override {
    return {{"seeds.make_all_s", world_->make_all_s},
            {"target.synthesize_s", world_->synthesize_s}};
  }
  [[nodiscard]] const char* pass_name() const override { return "drain"; }
  PassOut pass(Timeline* timeline) override;

 private:
  struct Shape {
    std::uint64_t tenant = 0;
    std::size_t vantage = 0;
    std::size_t first_target = 0;
    std::size_t targets = 0;
    std::uint64_t key = 0;
    std::uint64_t split = 1;
  };
  /// Tenant-local sink state: written only by the worker driving the
  /// tenant, read after drain() has joined its workers.
  struct Tenant {
    const Shape* shape = nullptr;
    std::unique_ptr<b6::prober::Yarrp6Source> source;
    std::unique_ptr<TracedSource> traced;
    b6::campaign::CampaignHandle handle;
    std::uint64_t replies = 0;
    std::uint64_t last_tick = 0;
    Digest d;
  };

  std::unique_ptr<World> world_;
  std::vector<b6::Ipv6Addr> targets_;
  std::vector<Shape> shapes_;
};

void ServiceElephant::setup(std::uint64_t seed) {
  world_.reset();
  world_ = std::make_unique<World>(kScale);
  const auto pool = target_pool(*world_);
  b6::Rng rng{seed};
  // targets_ = the elephant's targets, a seeded sample of the whole pool
  // (so every seed gives it the same mix of target sets), then the pool
  // the mice draw their 64-target slices from.
  std::vector<std::size_t> pick(pool.size());
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  std::shuffle(pick.begin(), pick.end(), rng);
  targets_.clear();
  for (std::size_t i = 0; i < kElephantTargets; ++i)
    targets_.push_back(pool[pick[i]]);
  targets_.insert(targets_.end(), pool.begin(), pool.end());
  // The elephant is submitted first, so drain() hands it to a worker
  // first. It probes from the first vantage whatever the seed: vantages
  // differ in path lengths, and so in fill probes, by several percent.
  shapes_.clear();
  shapes_.push_back({1, 0, 0, kElephantTargets, rng() | 1, kElephantSplit});
  const auto n_vantages = world_->topo.vantages().size();
  for (std::size_t i = 0; i < kMice; ++i) {
    Shape s{2 + i, rng() % n_vantages, 0, kTenantTargets, rng() | 1, 1};
    s.first_target = kElephantTargets + rng() % (pool.size() - kTenantTargets);
    shapes_.push_back(s);
  }
}

PassOut ServiceElephant::pass(Timeline* timeline) {
  // Tenants first: the reactor keeps pointers to their sources and sinks,
  // so it must be destroyed before them.
  std::vector<std::unique_ptr<Tenant>> tenants;
  b6::campaign::ReactorOptions options;
  options.n_threads = worker_threads();
  options.collect_merged = false;
  CampaignReactor reactor{world_->topo, {}, options};

  PassOut out;
  Admissions adm;
  const std::size_t span_mark =
      timeline != nullptr ? timeline->span_count() : 0;
  for (const Shape& s : shapes_) {
    auto t = std::make_unique<Tenant>();
    t->shape = &s;
    auto cfg = table7_cfg(world_->topo.vantages()[s.vantage].src, s.key);
    cfg.instance = instance_of(s.tenant);
    t->source = std::make_unique<b6::prober::Yarrp6Source>(
        cfg, std::span<const b6::Ipv6Addr>(targets_.data() + s.first_target,
                                           s.targets));
    b6::campaign::CampaignSpec spec;
    spec.tenant = s.tenant;
    spec.source = t->source.get();
    if (timeline != nullptr) {
      // The elephant's members interleave on one worker: async spans.
      t->traced = std::make_unique<TracedSource>(
          *t->source, Tap{timeline, "tenant", s.tenant, s.split > 1});
      spec.source = t->traced.get();
    }
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    spec.split_factor = s.split;
    Tenant* tp = t.get();
    spec.sink = [tp](const b6::wire::DecodedReply& r) {
      tp->last_tick = ticks();
      ++tp->replies;
      tp->d.mix(r);
    };
    if (submit_timed(reactor, spec, adm, out, t->handle))
      tenants.push_back(std::move(t));
  }
  adm.active_max = reactor.active_campaigns();

  const auto tick0 = ticks();
  const auto d0 = now_ns();
  const auto t0 = Clock::now();
  reactor.drain();
  out.engine_s = secs(t0, Clock::now());
  out.step_us.push_back(static_cast<float>(out.engine_s * 1e6));
  if (timeline != nullptr)
    timeline->add({"drain", "drain", 0, d0, now_ns(), thread_lane(), false});

  Digest d;
  std::uint64_t replies = 0;
  for (const auto& t : tenants) {
    const auto state = reactor.state(t->handle);
    const auto stats = reactor.stats(t->handle);
    if (!state || !stats || *state != CampaignState::kFinished ||
        stats->replies != t->replies) {
      out.fail("tenant " + std::to_string(t->shape->tenant) +
               " did not finish with every reply delivered");
      continue;
    }
    out.probes += stats->probes_sent;
    replies += stats->replies;
    d.mix(t->shape->tenant);
    d.mix(*stats);
    d.mix(t->replies);
    d.mix(t->d.h);
    out.last_result_s.push_back(
        static_cast<float>(tick_seconds(t->last_tick, tick0)));
  }
  out.digest = d.h;
  if (timeline == nullptr) return out;

  // Worker busy time from the tenant spans: a worker drives one campaign
  // from its first member's begin to its last member's finish.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> extent;
  for (const Span& s : timeline->spans_from(span_mark)) {
    if (s.cat != "tenant") continue;
    auto [it, fresh] = extent.try_emplace(s.id >> 8, s.start_ns, s.end_ns);
    it->second.first = std::min(it->second.first, s.start_ns);
    it->second.second = std::max(it->second.second, s.end_ns);
  }
  double busy = 0;
  for (const auto& [tenant, e] : extent)
    busy += static_cast<double>(e.second - e.first) / 1e9;
  const double probing_s = add_reactor_layers(reactor, adm, replies, out);
  auto& L = out.layer;
  L["engine.busy_s"] = busy;
  L["engine.self_s"] = busy - probing_s;
  L["campaign.reactor.drain.calls"] = 1;
  // A fan-out: its children run on the workers, so its span is its own.
  L["campaign.reactor.drain.self_s"] = out.engine_s;
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_service_waves() {
  return std::make_unique<ServiceWaves>();
}
std::unique_ptr<Workload> make_service_elephant() {
  return std::make_unique<ServiceElephant>();
}

}  // namespace perfbench
