// Worker-failure contracts for both parallel engines: a ProbeSource that
// throws from next() must surface its original exception from the driving
// call — ParallelCampaignRunner::run (inline and pooled, merged stream on
// and off, split), an epoch-family member failing mid-epoch while its
// siblings are parked at the family's barrier, CampaignReactor::drain()
// over a worker pool, and the serial step() loop — and must never hang the
// pool, the merger or the barrier (ctest's per-test TIMEOUT is the bound).
// A split shard's sink that throws, on the merging caller or on the tail
// pool, must surface from ParallelCampaignRunner::run the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/reactor.hpp"

namespace beholder6::campaign {
namespace {

/// The failure every throwing fixture raises, so a test can tell it apart
/// from any exception the engines might raise themselves.
struct WorkerFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// One probe per target, throwing WorkerFailure from next() once
/// `throw_after` probes are out. split(k) slices the targets into k
/// contiguous children; only the last child inherits the failure, counted
/// from its own first probe.
class ThrowingSource final : public ProbeSource {
 public:
  ThrowingSource(std::span<const Ipv6Addr> targets, std::size_t throw_after)
      : targets_(targets), throw_after_(throw_after) {}

  Poll next(std::uint64_t) override {
    if (sent_ == throw_after_) throw WorkerFailure{"source failed mid-run"};
    if (sent_ == targets_.size()) return Poll::exhausted();
    return Poll::emit({targets_[sent_++], 6});
  }

  [[nodiscard]] std::vector<std::unique_ptr<ProbeSource>> split(
      std::uint64_t k) const override {
    std::vector<std::unique_ptr<ProbeSource>> out;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::size_t lo = targets_.size() * i / k;
      const std::size_t hi = targets_.size() * (i + 1) / k;
      out.push_back(std::make_unique<ThrowingSource>(
          targets_.subspan(lo, hi - lo), i + 1 == k ? throw_after_ : kNever));
    }
    return out;
  }

 private:
  std::span<const Ipv6Addr> targets_;
  std::size_t throw_after_;
  std::size_t sent_ = 0;
};

/// A test-defined EpochBarrier that only counts its merges.
struct CountingBarrier final : EpochBarrier {
  void merge_epoch() override { ++merges; }
  int merges = 0;
};

/// One member of an epoch-coupled family: `epoch_len` probes per epoch,
/// then a pause at a round end. A member with `throw_at` != kNever throws
/// WorkerFailure when its `throw_at`-th probe comes due.
class EpochMember final : public ProbeSource {
 public:
  EpochMember(std::shared_ptr<CountingBarrier> barrier,
              std::span<const Ipv6Addr> targets, std::size_t epoch_len,
              std::size_t throw_at)
      : barrier_(std::move(barrier)),
        targets_(targets),
        epoch_len_(epoch_len),
        throw_at_(throw_at) {}

  Poll next(std::uint64_t) override {
    if (sent_ == throw_at_) throw WorkerFailure{"member failed mid-epoch"};
    if (sent_ == targets_.size()) return Poll::exhausted();
    if (in_epoch_ == epoch_len_) {
      in_epoch_ = 0;
      paused_ = true;
      return Poll::round_end();
    }
    ++in_epoch_;
    return Poll::emit({targets_[sent_++], 6});
  }
  [[nodiscard]] EpochBarrier* epoch_barrier() const override {
    return barrier_.get();
  }
  [[nodiscard]] bool epoch_paused() const override { return paused_; }
  void epoch_resume() override { paused_ = false; }

 private:
  std::shared_ptr<CountingBarrier> barrier_;
  std::span<const Ipv6Addr> targets_;
  std::size_t epoch_len_;
  std::size_t throw_at_;
  std::size_t sent_ = 0;
  std::size_t in_epoch_ = 0;
  bool paused_ = false;
};

/// Splits into an epoch family whose last member throws halfway through
/// its second epoch. Siblings close their epochs after 2 probes, the
/// thrower after 8, so at equal pacing every sibling is parked at the
/// barrier when the thrower fails; the barrier merges exactly once.
class FamilySource final : public ProbeSource {
 public:
  explicit FamilySource(std::span<const Ipv6Addr> targets) : targets_(targets) {}

  Poll next(std::uint64_t) override { return Poll::exhausted(); }

  [[nodiscard]] std::vector<std::unique_ptr<ProbeSource>> split(
      std::uint64_t k) const override {
    std::vector<std::unique_ptr<ProbeSource>> out;
    for (std::uint64_t i = 0; i < k; ++i) {
      const bool thrower = i + 1 == k;
      out.push_back(std::make_unique<EpochMember>(
          barrier, targets_, thrower ? 8 : 2, thrower ? 12 : kNever));
    }
    return out;
  }

  std::shared_ptr<CountingBarrier> barrier = std::make_shared<CountingBarrier>();

 private:
  std::span<const Ipv6Addr> targets_;
};

/// Probes [lo, hi) of an endless walk cycling over the targets, one TTL
/// per lap, so a handful of targets yields thousands of replies — more
/// than one reply ring holds. split(k) slices the range contiguously.
class FloodSource final : public ProbeSource {
 public:
  FloodSource(std::span<const Ipv6Addr> targets, std::size_t lo, std::size_t hi)
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
      out.push_back(std::make_unique<FloodSource>(
          targets_, next_ + (hi_ - next_) * i / k,
          next_ + (hi_ - next_) * (i + 1) / k));
    return out;
  }

 private:
  std::span<const Ipv6Addr> targets_;
  std::size_t next_;
  std::size_t hi_;
};

class WorkerFailureTest : public ::testing::Test {
 protected:
  WorkerFailureTest() : topo_(simnet::TopologyParams{}), targets_(make_targets(40)) {}

  std::vector<Ipv6Addr> make_targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 6))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  [[nodiscard]] Endpoint endpoint() const {
    return {topo_.vantages()[0].src, wire::Proto::kIcmp6, 1};
  }

  simnet::Topology topo_;
  std::vector<Ipv6Addr> targets_;
};

TEST_F(WorkerFailureTest, ParallelRunRethrowsTheSourceFailure) {
  for (const unsigned threads : {1u, 4u}) {
    for (const bool collect : {true, false}) {
      for (const std::uint64_t split : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, collect "
                                        << collect << ", split " << split);
        std::vector<std::unique_ptr<ThrowingSource>> sources;
        std::vector<Shard> shards;
        for (std::size_t i = 0; i < 6; ++i) {
          sources.push_back(
              std::make_unique<ThrowingSource>(targets_, i == 3 ? 5 : kNever));
          shards.push_back({sources.back().get(), endpoint(),
                            PacingPolicy::uniform(2000),
                            [](const wire::DecodedReply&) {}});
        }
        const ParallelCampaignRunner runner{topo_, {}, threads};
        EXPECT_THROW(
            (void)runner.run(shards, {.collect_replies = collect,
                                      .split_factor = split}),
            WorkerFailure);
      }
    }
  }
}

TEST_F(WorkerFailureTest, EpochFamilyMemberFailsWhileSiblingsAreParked) {
  for (const unsigned threads : {1u, 4u}) {
    for (const bool collect : {true, false}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, collect "
                                      << collect);
      FamilySource family{targets_};
      ThrowingSource bystander{targets_, kNever};
      const std::vector<Shard> shards{
          {&family, endpoint(), PacingPolicy::uniform(2000), {}},
          {&bystander, endpoint(), PacingPolicy::uniform(2000), {}}};
      const ParallelCampaignRunner runner{topo_, {}, threads};
      EXPECT_THROW((void)runner.run(shards, {.collect_replies = collect,
                                             .split_factor = 4}),
                   WorkerFailure);
      // The failed member never arrives, so epoch 2 never merges.
      EXPECT_EQ(family.barrier->merges, 1);
    }
  }
}

// A split shard's sink runs on the merging caller while workers probe and
// on the tail pool once they have joined. A sink throwing in either place
// must surface from run() with every thread joined: workers blocked on a
// full reply ring give up once the run has failed, and a tail failure
// stops the fan-out. The first call fails while the floods are still
// streaming (at one worker, tens of ring-fulls are still to come); the
// last call fails in whichever phase delivers it.
TEST_F(WorkerFailureTest, ParallelRunRethrowsASplitSinkFailure) {
  constexpr std::size_t kProbes = 20000;
  for (const unsigned threads : {1u, 4u}) {
    for (const bool collect : {true, false}) {
      // Three split floods; the middle shard's sink throws at its
      // `throw_at`-th call (never, when 0) and counts its calls.
      std::size_t seen = 0;
      auto run = [&](std::size_t throw_at) {
        seen = 0;
        std::vector<std::unique_ptr<FloodSource>> sources;
        std::vector<Shard> shards;
        for (std::size_t i = 0; i < 3; ++i) {
          sources.push_back(std::make_unique<FloodSource>(targets_, 0, kProbes));
          ResponseSink sink;
          if (i == 1)
            sink = [&seen, throw_at](const wire::DecodedReply&) {
              if (++seen == throw_at) throw WorkerFailure{"sink failed"};
            };
          shards.push_back({sources.back().get(), endpoint(),
                            PacingPolicy::uniform(2000), std::move(sink)});
        }
        const ParallelCampaignRunner runner{topo_, {}, threads};
        return runner.run(shards,
                          {.collect_replies = collect, .split_factor = 4});
      };
      const std::size_t calls = run(0).per_shard[1].replies;
      ASSERT_EQ(seen, calls);
      ASSERT_GT(calls, 4u * 1024) << "the floods must overfill a reply ring";
      for (const std::size_t throw_at : {std::size_t{1}, calls}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, collect "
                                        << collect << ", throw at call "
                                        << throw_at << " of " << calls);
        EXPECT_THROW((void)run(throw_at), WorkerFailure);
        EXPECT_EQ(seen, throw_at);
      }
    }
  }
}

TEST_F(WorkerFailureTest, ReactorParallelDrainRethrowsTheSourceFailure) {
  ReactorOptions options;
  options.n_threads = 2;
  CampaignReactor reactor{topo_, {}, options};
  std::vector<std::unique_ptr<ThrowingSource>> sources;
  for (std::uint64_t tenant = 1; tenant <= 6; ++tenant) {
    sources.push_back(
        std::make_unique<ThrowingSource>(targets_, tenant == 4 ? 5 : kNever));
    CampaignSpec spec;
    spec.tenant = tenant;
    spec.source = sources.back().get();
    spec.endpoint = endpoint();
    spec.pacing = PacingPolicy::uniform(2000);
    ASSERT_TRUE(reactor.submit(spec).admitted());
  }
  EXPECT_THROW(reactor.drain(), WorkerFailure);
}

TEST_F(WorkerFailureTest, ReactorFamilyMemberFailsInParallelDrain) {
  ReactorOptions options;
  options.n_threads = 2;
  CampaignReactor reactor{topo_, {}, options};
  FamilySource family{targets_};
  ThrowingSource bystander{targets_, kNever};
  CampaignSpec spec;
  spec.tenant = 1;
  spec.source = &family;
  spec.endpoint = endpoint();
  spec.pacing = PacingPolicy::uniform(2000);
  spec.split_factor = 4;
  ASSERT_TRUE(reactor.submit(spec).admitted());
  spec.tenant = 2;
  spec.source = &bystander;
  spec.split_factor = 1;
  ASSERT_TRUE(reactor.submit(spec).admitted());
  EXPECT_THROW(reactor.drain(), WorkerFailure);
  EXPECT_EQ(family.barrier->merges, 1);
}

TEST_F(WorkerFailureTest, ReactorSerialStepRethrowsTheSourceFailure) {
  CampaignReactor reactor{topo_};
  ThrowingSource healthy{targets_, kNever};
  ThrowingSource failing{targets_, 5};
  FamilySource family{targets_};
  CampaignSpec spec;
  spec.endpoint = endpoint();
  spec.pacing = PacingPolicy::uniform(2000);
  spec.tenant = 1;
  spec.source = &healthy;
  ASSERT_TRUE(reactor.submit(spec).admitted());
  spec.tenant = 2;
  spec.source = &failing;
  ASSERT_TRUE(reactor.submit(spec).admitted());
  EXPECT_THROW(
      {
        while (reactor.step()) {
        }
      },
      WorkerFailure);

  // A family member failing mid-epoch in the serial loop: its siblings
  // are parked, the barrier merged once.
  CampaignReactor family_reactor{topo_};
  spec.tenant = 3;
  spec.source = &family;
  spec.split_factor = 4;
  ASSERT_TRUE(family_reactor.submit(spec).admitted());
  EXPECT_THROW(
      {
        while (family_reactor.step()) {
        }
      },
      WorkerFailure);
  EXPECT_EQ(family.barrier->merges, 1);
}

}  // namespace
}  // namespace beholder6::campaign
