// Lifecycle contracts for the multi-tenant CampaignReactor: admission and
// deterministic rejection, submit/pause/resume/cancel mid-run, cancel
// refunding the in-flight probe-budget reservation, byte-identity of a
// reactor run to N serial CampaignRunner runs of the same specs, identical
// replay after reset(), parallel drain() equal to the serial step() loop,
// and incremental per-tenant streaming through io/trace_io-backed sinks.
#include "campaign/reactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include "io/trace_io.hpp"
#include "prober/yarrp6.hpp"

namespace beholder6::campaign {
namespace {

/// Probes [lo, hi) of an endless walk cycling over the targets, one TTL
/// per lap: a long free campaign from a handful of targets, so a split
/// member runs through several of a parallel drain's windows.
class CycleSource final : public ProbeSource {
 public:
  CycleSource(std::span<const Ipv6Addr> targets, std::size_t lo, std::size_t hi)
      : targets_(targets), next_(lo), hi_(hi) {}

  Poll next(std::uint64_t) override {
    if (next_ == hi_) return Poll::exhausted();
    const std::size_t i = next_++;
    return Poll::emit({targets_[i % targets_.size()],
                       static_cast<std::uint8_t>(1 + i / targets_.size() % 16)});
  }

  [[nodiscard]] std::vector<std::unique_ptr<ProbeSource>> split(
      std::uint64_t k) const override {
    std::vector<std::unique_ptr<ProbeSource>> out;
    for (std::uint64_t i = 0; i < k; ++i)
      out.push_back(std::make_unique<CycleSource>(
          targets_, next_ + (hi_ - next_) * i / k,
          next_ + (hi_ - next_) * (i + 1) / k));
    return out;
  }

 private:
  std::span<const Ipv6Addr> targets_;
  std::size_t next_;
  std::size_t hi_;
};

class ReactorTest : public ::testing::Test {
 protected:
  ReactorTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n, std::size_t skip = 0) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 6)) {
        if (skip > 0) {
          --skip;
          continue;
        }
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      }
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  /// One tenant's spec over a private yarrp6 source. The fixture keeps the
  /// source and its target list alive; tenants get disjoint target slices
  /// so their campaigns are genuinely distinct.
  CampaignSpec make_spec(std::uint64_t tenant, std::size_t n_targets,
                         double pps = 3000, std::uint8_t max_ttl = 6) {
    target_lists_.push_back(std::make_unique<std::vector<Ipv6Addr>>(
        targets(n_targets, 4 * static_cast<std::size_t>(tenant % 97))));
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[tenant % topo_.vantages().size()].src;
    cfg.pps = pps;
    cfg.max_ttl = max_ttl;
    cfg.fill_mode = true;
    cfg.instance = static_cast<std::uint8_t>(1 + tenant % 200);
    sources_.push_back(
        std::make_unique<prober::Yarrp6Source>(cfg, *target_lists_.back()));
    CampaignSpec spec;
    spec.tenant = tenant;
    spec.source = sources_.back().get();
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    return spec;
  }

  static void expect_identical(const std::vector<ReactorReply>& a,
                               const std::vector<ReactorReply>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].slot_us, b[i].slot_us) << "record " << i;
      ASSERT_EQ(a[i].tenant, b[i].tenant) << "record " << i;
      ASSERT_EQ(a[i].member, b[i].member) << "record " << i;
      ASSERT_EQ(a[i].seq, b[i].seq) << "record " << i;
      ASSERT_EQ(a[i].local_us, b[i].local_us) << "record " << i;
      ASSERT_EQ(a[i].reply, b[i].reply) << "record " << i;
    }
  }

  static std::vector<ReactorReply> tenant_records(
      const std::vector<ReactorReply>& merged, std::uint64_t tenant) {
    std::vector<ReactorReply> out;
    for (const auto& r : merged)
      if (r.tenant == tenant) out.push_back(r);
    return out;
  }

  simnet::Topology topo_;
  std::vector<std::unique_ptr<std::vector<Ipv6Addr>>> target_lists_;
  std::vector<std::unique_ptr<prober::Yarrp6Source>> sources_;
};

TEST_F(ReactorTest, RunsManyTenantsToCompletion) {
  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> handles;
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto adm = reactor.submit(make_spec(t, 12));
    ASSERT_TRUE(adm.admitted());
    handles.push_back(adm.handle);
  }
  EXPECT_EQ(reactor.active_campaigns(), 5u);
  EXPECT_GT(reactor.drain(), 0u);
  EXPECT_TRUE(reactor.idle());
  EXPECT_EQ(reactor.active_campaigns(), 0u);
  for (const auto& h : handles) {
    EXPECT_EQ(reactor.state(h), CampaignState::kFinished);
    const auto stats = reactor.stats(h);
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->probes_sent, 0u);
    EXPECT_GT(stats->replies, 0u);
  }
  // The merged stream is canonically ordered and covers every tenant.
  const auto& merged = reactor.merged();
  EXPECT_GT(merged.size(), 0u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    EXPECT_LE(std::tie(a.slot_us, a.tenant, a.member, a.seq),
              std::tie(b.slot_us, b.tenant, b.member, b.seq));
  }
  for (std::uint64_t t = 1; t <= 5; ++t)
    EXPECT_GT(tenant_records(merged, t).size(), 0u) << "tenant " << t;
}

TEST_F(ReactorTest, ReactorRunEqualsSerialRunnersPerTenant) {
  // The core isolation contract: a reactor run of N tenants is
  // byte-identical, per tenant, to N serial CampaignRunner runs of the
  // same specs — same replies, same local virtual times, same stats.
  struct Solo {
    std::vector<std::pair<std::uint64_t, wire::DecodedReply>> replies;
    ProbeStats stats;
  };
  std::vector<Solo> solo(4);
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto spec = make_spec(100 + t, 10, 2000 + 500 * t);
    simnet::Network net{topo_};
    Solo& s = solo[t];
    s.stats = CampaignRunner::run_one(
        net, *spec.source, spec.endpoint, spec.pacing,
        [&](const wire::DecodedReply& r) { s.replies.emplace_back(net.now_us(), r); });
  }

  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> handles;
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto adm = reactor.submit(make_spec(100 + t, 10, 2000 + 500 * t));
    ASSERT_TRUE(adm.admitted());
    handles.push_back(adm.handle);
  }
  reactor.drain();

  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto recs = tenant_records(reactor.merged(), 100 + t);
    const Solo& s = solo[t];
    ASSERT_EQ(recs.size(), s.replies.size()) << "tenant " << t;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].local_us, s.replies[i].first) << "tenant " << t;
      EXPECT_EQ(recs[i].reply, s.replies[i].second) << "tenant " << t;
    }
    EXPECT_EQ(reactor.stats(handles[t]), s.stats) << "tenant " << t;
  }
}

TEST_F(ReactorTest, PauseResumeChangesNothingButWallClock) {
  // Reference: two tenants drained without interference.
  CampaignReactor ref{topo_};
  ASSERT_TRUE(ref.submit(make_spec(7, 10)).admitted());
  ASSERT_TRUE(ref.submit(make_spec(8, 10)).admitted());
  ref.drain();

  // Same specs, but tenant 7 is paused mid-run while 8 keeps stepping,
  // then resumed. Saved dues are restored verbatim, so even the *global*
  // slot times match the uninterrupted run.
  CampaignReactor reactor{topo_};
  const auto h7 = reactor.submit(make_spec(7, 10)).handle;
  const auto h8 = reactor.submit(make_spec(8, 10)).handle;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.pause(h7));
  EXPECT_EQ(reactor.state(h7), CampaignState::kPaused);
  for (int i = 0; i < 50; ++i) reactor.step();  // only tenant 8 progresses
  ASSERT_TRUE(reactor.resume(h7));
  reactor.drain();

  expect_identical(reactor.merged(), ref.merged());
  EXPECT_EQ(reactor.state(h7), CampaignState::kFinished);
  EXPECT_EQ(reactor.state(h8), CampaignState::kFinished);
  // Double-pause/resume of finished campaigns is refused, not UB.
  EXPECT_FALSE(reactor.pause(h7));
  EXPECT_FALSE(reactor.resume(h7));
}

TEST_F(ReactorTest, CancelRefundsInFlightBudget) {
  ReactorOptions options;
  options.max_reserved_probes = 1000;
  CampaignReactor reactor{topo_, {}, options};

  auto spec_a = make_spec(1, 10);
  spec_a.probe_budget = 800;
  const auto a = reactor.submit(spec_a);
  ASSERT_TRUE(a.admitted());
  EXPECT_EQ(reactor.reserved_probes(), 800u);

  auto spec_b = make_spec(2, 10);
  spec_b.probe_budget = 400;
  EXPECT_EQ(reactor.submit(spec_b).result, AdmitResult::kRejectedBudgetLimit);

  // Run tenant 1 partway — the budget is committed, not yet spent.
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.cancel(a.handle));
  EXPECT_EQ(reactor.state(a.handle), CampaignState::kCancelled);
  EXPECT_EQ(reactor.reserved_probes(), 0u);
  EXPECT_EQ(reactor.active_campaigns(), 0u);

  // The refund reopens admission immediately; cancel is idempotent-false.
  const auto b = reactor.submit(spec_b);
  EXPECT_TRUE(b.admitted());
  EXPECT_FALSE(reactor.cancel(a.handle));
  reactor.drain();
  EXPECT_EQ(reactor.state(b.handle), CampaignState::kFinished);
  // The cancelled campaign's stats stay frozen at cancellation.
  const auto stats = reactor.stats(a.handle);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->probes_sent, 0u);
  EXPECT_LT(stats->probes_sent, 800u);
}

TEST_F(ReactorTest, BudgetCapRetiresDeterministically) {
  auto run = [&](std::uint64_t tenant) {
    CampaignReactor reactor{topo_};
    auto spec = make_spec(tenant, 12);
    spec.probe_budget = 25;
    const auto h = reactor.submit(spec).handle;
    reactor.drain();
    EXPECT_EQ(reactor.state(h), CampaignState::kBudgetExhausted);
    const auto stats = reactor.stats(h);
    EXPECT_GE(stats->probes_sent, 25u);
    return std::make_pair(stats->probes_sent, reactor.merged().size());
  };
  // Same spec twice: the forced retirement happens at the same probe.
  EXPECT_EQ(run(3), run(3));
}

TEST_F(ReactorTest, DeterministicAdmissionRejections) {
  ReactorOptions options;
  options.max_campaigns = 2;
  CampaignReactor reactor{topo_, {}, options};
  ASSERT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
  // Duplicate in-flight tenant id.
  EXPECT_EQ(reactor.submit(make_spec(1, 6)).result,
            AdmitResult::kRejectedDuplicateTenant);
  ASSERT_TRUE(reactor.submit(make_spec(2, 6)).admitted());
  // Campaign ceiling.
  EXPECT_EQ(reactor.submit(make_spec(3, 6)).result,
            AdmitResult::kRejectedCampaignLimit);
  // Bad specs are rejected before any ledger touch.
  CampaignSpec null_source;
  null_source.tenant = 9;
  EXPECT_EQ(reactor.submit(null_source).result, AdmitResult::kRejectedBadSpec);
  // Retirement reopens both the tenant id and the campaign slot.
  reactor.drain();
  EXPECT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
}

TEST_F(ReactorTest, ReplaysIdenticallyAfterReset) {
  CampaignReactor reactor{topo_};
  auto run_once = [&] {
    std::vector<CampaignHandle> handles;
    for (std::uint64_t t = 1; t <= 3; ++t)
      handles.push_back(reactor.submit(make_spec(t, 8)).handle);
    reactor.drain();
    std::vector<ProbeStats> stats;
    for (const auto& h : handles) stats.push_back(*reactor.stats(h));
    return std::make_pair(reactor.merged(), stats);
  };
  const auto first = run_once();
  reactor.reset();
  EXPECT_EQ(reactor.now_us(), 0u);
  EXPECT_TRUE(reactor.idle());
  const auto second = run_once();
  expect_identical(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ReactorTest, ParallelDrainMatchesSerialStep) {
  // Tenants 1-6 are unsplit, half of them service-throttled. Tenants 7-10
  // are split yarrp6 campaigns: 7 and 8 are free (split 4 and 8, so the
  // 2-thread pool has more members than workers), 9 is throttled and 10
  // budgeted, which keep them whole. Tenant 11 is a free split of 30,000
  // probes in three members, long enough to span several of a parallel
  // drain's windows. Every tenant's sink call sequence,
  // the merged stream, stats, states and the clock must equal the serial
  // step() loop at any thread count, with the stream collected or not, and
  // also when serial steps before the drain have exhausted some members.
  constexpr std::uint64_t kTenants = 11;
  constexpr std::uint64_t kPartlyExhausted = 8;
  const auto cycle_targets = targets(40);
  struct Outcome {
    std::vector<std::vector<wire::DecodedReply>> sunk;  // per tenant
    std::vector<ReactorReply> merged;
    std::vector<ProbeStats> stats;
    std::vector<CampaignState> states;
    std::uint64_t now_us = 0;
  };
  auto run = [&](unsigned n_threads, bool collect, bool step_first) {
    ReactorOptions options;
    options.n_threads = n_threads;
    options.collect_merged = collect;
    CampaignReactor reactor{topo_, {}, options};
    Outcome out;
    out.sunk.resize(kTenants);
    std::vector<CampaignHandle> handles;
    CycleSource cycle{cycle_targets, 0, 30000};
    for (std::uint64_t t = 1; t <= kTenants; ++t) {
      auto spec = make_spec(t, t <= 6 ? 10 : 24,
                            1500 + 250 * static_cast<double>(t));
      if (t == 11) {
        spec.source = &cycle;
        spec.split_factor = 3;
      }
      if (t <= 6 && t % 2 == 0) {
        spec.rate_limit_pps = 900;
        spec.rate_limit_burst = 4;
      }
      if (t == 7 || t == 9 || t == 10) spec.split_factor = 4;
      if (t == 8) spec.split_factor = 8;
      if (t == 9) {
        spec.rate_limit_pps = 2000;
        spec.rate_limit_burst = 8;
      }
      if (t == 10) spec.probe_budget = 100;
      auto* sunk = &out.sunk[t - 1];
      spec.sink = [sunk](const wire::DecodedReply& r) { sunk->push_back(r); };
      const auto adm = reactor.submit(spec);
      EXPECT_TRUE(adm.admitted()) << "tenant " << t;
      handles.push_back(adm.handle);
    }
    if (step_first) {
      // Stop right after the first member of tenant 8 exhausts: only an
      // exhausted member has set its elapsed time.
      const auto h = handles[kPartlyExhausted - 1];
      while (reactor.stats(h)->elapsed_virtual_us == 0) EXPECT_TRUE(reactor.step());
      EXPECT_EQ(reactor.state(h), CampaignState::kRunning);
    }
    reactor.drain();
    EXPECT_TRUE(reactor.idle());
    out.merged = reactor.merged();
    for (const auto& h : handles) {
      out.stats.push_back(*reactor.stats(h));
      out.states.push_back(*reactor.state(h));
    }
    out.now_us = reactor.now_us();
    return out;
  };

  const Outcome serial = run(1, true, false);
  ASSERT_GT(serial.merged.size(), 0u);
  for (std::uint64_t t = 1; t <= kTenants; ++t)
    EXPECT_EQ(serial.states[t - 1], t == 10 ? CampaignState::kBudgetExhausted
                                            : CampaignState::kFinished)
        << "tenant " << t;
  for (std::uint64_t t = 1; t <= kTenants; ++t) {
    // The sinks saw exactly each tenant's substream of the merged stream.
    // Not tenant 9: a throttled family's member can be rescheduled at a
    // bucket-ready due below the slot just run, so its slots do not run
    // in slot_us order (its sink order still matches across drain modes).
    if (t == 9) continue;
    const auto recs = tenant_records(serial.merged, t);
    ASSERT_EQ(recs.size(), serial.sunk[t - 1].size()) << "tenant " << t;
    ASSERT_GT(recs.size(), 0u) << "tenant " << t;
    for (std::size_t i = 0; i < recs.size(); ++i)
      ASSERT_EQ(recs[i].reply, serial.sunk[t - 1][i]) << "tenant " << t;
  }

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool collect : {true, false}) {
      for (const bool step_first : {false, true}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, collect "
                                        << collect << ", step first "
                                        << step_first);
        const Outcome got = run(threads, collect, step_first);
        for (std::uint64_t t = 1; t <= kTenants; ++t)
          ASSERT_EQ(got.sunk[t - 1], serial.sunk[t - 1]) << "tenant " << t;
        if (collect) {
          expect_identical(serial.merged, got.merged);
        } else {
          EXPECT_TRUE(got.merged.empty());
        }
        EXPECT_EQ(got.stats, serial.stats);
        EXPECT_EQ(got.states, serial.states);
        EXPECT_EQ(got.now_us, serial.now_us);
      }
    }
  }
}

TEST_F(ReactorTest, ThrottleShapesGlobalTimeOnly) {
  // Service throttle below the tenant's own pacing rate: global slots are
  // deferred, but the tenant's local timeline — and every reply — is
  // byte-identical to the unthrottled run.
  CampaignReactor free_reactor{topo_};
  ASSERT_TRUE(free_reactor.submit(make_spec(5, 8, 4000)).admitted());
  free_reactor.drain();

  CampaignReactor throttled{topo_};
  auto spec = make_spec(5, 8, 4000);
  spec.rate_limit_pps = 1000;  // a quarter of the pacing rate
  spec.rate_limit_burst = 1;
  ASSERT_TRUE(throttled.submit(spec).admitted());
  throttled.drain();

  const auto& fast = free_reactor.merged();
  const auto& slow = throttled.merged();
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_GT(fast.size(), 0u);
  bool deferred = false;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].local_us, slow[i].local_us);
    EXPECT_EQ(fast[i].reply, slow[i].reply);
    EXPECT_GE(slow[i].slot_us, fast[i].slot_us);
    deferred |= slow[i].slot_us > fast[i].slot_us;
  }
  EXPECT_TRUE(deferred) << "a 4x-over-rate tenant was never deferred";
  // The throttled campaign finishes later on the service clock.
  EXPECT_GT(throttled.now_us(), free_reactor.now_us());
}

TEST_F(ReactorTest, StreamsIncrementallyThroughTraceIoSinks) {
  // Results leave per tenant through io/trace_io-backed sinks as replies
  // arrive — not at exhaustion. The text and binary streams both replay to
  // exactly the tenant's merged substream.
  std::ostringstream text_out;
  std::ostringstream binary_out;
  io::StreamingTraceSink text_sink{text_out, io::StreamingTraceSink::Format::kText};
  io::StreamingTraceSink binary_sink{binary_out,
                                     io::StreamingTraceSink::Format::kBinary};
  std::size_t streamed_mid_run = 0;

  CampaignReactor reactor{topo_};
  auto spec_a = make_spec(21, 10);
  spec_a.sink = [&](const wire::DecodedReply& r) { text_sink(r); };
  auto spec_b = make_spec(22, 10);
  spec_b.sink = [&](const wire::DecodedReply& r) { binary_sink(r); };
  ASSERT_TRUE(reactor.submit(spec_a).admitted());
  ASSERT_TRUE(reactor.submit(spec_b).admitted());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(reactor.step());
  streamed_mid_run = text_sink.written() + binary_sink.written();
  reactor.drain();

  EXPECT_GT(streamed_mid_run, 0u) << "nothing streamed before exhaustion";
  std::istringstream text_in{text_out.str()};
  const auto text_records = io::read_text(text_in);
  EXPECT_EQ(text_records.malformed, 0u);
  std::istringstream binary_in{binary_out.str()};
  const auto binary_records = io::read_binary(binary_in);
  ASSERT_TRUE(binary_records.has_value());

  auto expect_stream = [&](const std::vector<io::TraceRecord>& got,
                           std::uint64_t tenant) {
    const auto recs = tenant_records(reactor.merged(), tenant);
    ASSERT_EQ(got.size(), recs.size()) << "tenant " << tenant;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], io::TraceRecord::from_reply(recs[i].reply))
          << "tenant " << tenant << " record " << i;
  };
  expect_stream(text_records.records, 21);
  expect_stream(*binary_records, 22);
}

}  // namespace
}  // namespace beholder6::campaign
