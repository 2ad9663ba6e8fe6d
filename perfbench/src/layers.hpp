// perfbench/src/layers.hpp — layer costs measured from outside the library.
//
// The benchmark never edits the library to see into it. Instead the traced
// run wraps the two seams every probing path already exposes:
//
//   * TracedSource — a ProbeSource decorator that forwards every virtual
//     (begin, next, on_reply, on_probe_done, finish, next_target_hint,
//     route_warm_targets, split, epoch_barrier, epoch_paused, epoch_resume)
//     and times the prober calls. split() wraps the children, and children
//     of one epoch-coupled family share one TracedBarrier, so snapshot
//     warmup and barrier behaviour are exactly the unwrapped ones.
//   * traced_sink — a ResponseSink wrapper that times the sink it forwards
//     to (a topology::TraceCollector or an io::StreamingTraceSink).
//
// Per-call costs aggregate per call site into CallStats (count, total, log2
// histogram), one block per thread; only coarse spans — workload, setup,
// passes, and each work unit or tenant from begin to finish — go to the
// Timeline, which is written as Chrome trace-event JSON when the run ends.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "campaign/probe_source.hpp"

namespace perfbench {

namespace b6 = beholder6;
using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// A timestamp cheap enough to take around every prober call and in every
/// sink: the invariant TSC on x86-64, steady_clock nanoseconds elsewhere.
std::uint64_t ticks();

/// Nanoseconds per tick, calibrated against steady_clock on first use.
double ns_per_tick();

/// Count, total and log2 histogram of one call site's durations.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, 32> log2_ns{};  // bucket b: [2^(b-1), 2^b) ns

  void add(std::uint64_t ns) {
    ++calls;
    total_ns += ns;
    const std::size_t bucket = std::bit_width(ns);
    ++log2_ns[std::min(bucket, log2_ns.size() - 1)];
  }
  /// Record one call that lasted from tick t0 to tick t1.
  void add_ticks(std::uint64_t t0, std::uint64_t t1) {
    const double ns = static_cast<double>(t1 - t0) * ns_per_tick();
    add(static_cast<std::uint64_t>(ns));
  }
  CallStats& operator+=(const CallStats& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    for (std::size_t i = 0; i < log2_ns.size(); ++i)
      log2_ns[i] += o.log2_ns[i];
    return *this;
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(total_ns) / 1e9;
  }
};

/// The call sites the traced run times: the five prober calls a
/// TracedSource wraps and the two kinds of sink traced_sink wraps.
enum Site : std::size_t {
  kNext,
  kOnReply,
  kOnProbeDone,
  kSplit,
  kEpochMerge,
  kCollector,  // topology::TraceCollector
  kIoSink,     // io::StreamingTraceSink
  kSites
};
inline constexpr const char* kSiteNames[kSites] = {
    "prober.next",        "prober.on_reply",    "prober.on_probe_done",
    "prober.split",       "prober.epoch_merge", "topology.collector",
    "io.sink"};
using SiteStats = std::array<CallStats, kSites>;

/// Record one call at `site` that lasted from tick t0 to t1. Calls land in
/// a per-thread block (hot in cache however many sources a thread drives),
/// which a thread folds into the process totals when it exits.
void record(Site site, std::uint64_t t0, std::uint64_t t1);

/// The process totals plus the calling thread's block, then reset. Call it
/// after the pass's worker threads have exited.
SiteStats take_site_stats();

/// Adds prober.<call>.calls and prober.<call>.self_s for every prober call
/// and returns the self time of those that run while probing: all but
/// split(), which runs where a campaign is admitted, before it probes.
double add_prober_layers(const SiteStats& sites,
                         std::map<std::string, double>& layer);

/// One coarse span for the Chrome trace. `async` spans (tenants interleaved
/// on one thread) become b/e pairs keyed by id; the rest are complete
/// events on their thread's lane.
struct Span {
  std::string name;
  std::string cat;
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  bool async = false;
};

/// Small dense id for the calling thread (its lane in the trace).
std::uint32_t thread_lane();

/// Thread-safe span sink.
class Timeline {
 public:
  void add(Span span);
  /// Spans recorded so far, and a copy of those from index `mark` on.
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::vector<Span> spans_from(std::size_t mark) const;
  /// Write every span as Chrome trace-event JSON; false if the file fails.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::uint64_t origin_ns) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Where a wrapped source reports: the shared timeline, its span key and
/// whether its begin-to-finish span interleaves with others on one thread.
struct Tap {
  Timeline* timeline = nullptr;
  std::string cat;  // "shard" or "tenant"
  std::uint64_t key = 0;
  bool async = false;  // serial reactor loop: tenants overlap on one lane
};

class TracedBarrier;

/// Transparent ProbeSource decorator (see the file comment).
class TracedSource final : public b6::campaign::ProbeSource {
 public:
  /// Wrap a caller-owned source.
  TracedSource(b6::campaign::ProbeSource& inner, Tap tap)
      : inner_(&inner), tap_(std::move(tap)) {}
  /// Wrap a split child this wrapper owns; `barrier` is the family's
  /// shared wrapped barrier (null for free-running children).
  TracedSource(std::unique_ptr<b6::campaign::ProbeSource> owned,
               std::shared_ptr<TracedBarrier> barrier, Tap tap,
               std::uint32_t member)
      : owned_(std::move(owned)),
        inner_(owned_.get()),
        barrier_(std::move(barrier)),
        tap_(std::move(tap)),
        member_(member) {}
  TracedSource(const TracedSource&) = delete;
  TracedSource& operator=(const TracedSource&) = delete;

  void begin(std::uint64_t now_us) override;
  b6::campaign::Poll next(std::uint64_t now_us) override;
  void on_reply(const b6::campaign::Probe& probe,
                const b6::wire::DecodedReply& reply,
                std::uint64_t now_us) override;
  void on_probe_done(const b6::campaign::Probe& probe, bool answered,
                     std::uint64_t now_us) override;
  void finish(b6::campaign::ProbeStats& stats) const override;
  [[nodiscard]] std::optional<b6::Ipv6Addr> next_target_hint()
      const override {
    return inner_->next_target_hint();
  }
  [[nodiscard]] std::span<const b6::Ipv6Addr> route_warm_targets()
      const override {
    return inner_->route_warm_targets();
  }
  [[nodiscard]] std::vector<std::unique_ptr<b6::campaign::ProbeSource>>
  split(std::uint64_t k) const override;
  [[nodiscard]] b6::campaign::EpochBarrier* epoch_barrier() const override;
  [[nodiscard]] bool epoch_paused() const override {
    return inner_->epoch_paused();
  }
  void epoch_resume() override { inner_->epoch_resume(); }

 private:
  std::unique_ptr<b6::campaign::ProbeSource> owned_;
  b6::campaign::ProbeSource* inner_;
  std::shared_ptr<TracedBarrier> barrier_;
  Tap tap_;
  std::uint32_t member_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint32_t begin_lane_ = 0;
};

/// The wrapped EpochBarrier one split family shares: times merge_epoch
/// and forwards it to the family's real barrier.
class TracedBarrier final : public b6::campaign::EpochBarrier {
 public:
  explicit TracedBarrier(b6::campaign::EpochBarrier& inner)
      : inner_(&inner) {}
  TracedBarrier(const TracedBarrier&) = delete;
  TracedBarrier& operator=(const TracedBarrier&) = delete;

  void merge_epoch() override;

 private:
  b6::campaign::EpochBarrier* inner_;
};

/// ResponseSink wrapper timing the sink it forwards to as `site`.
inline b6::campaign::ResponseSink traced_sink(
    b6::campaign::ResponseSink inner, Site site) {
  return [inner = std::move(inner),
          site](const b6::wire::DecodedReply& reply) {
    const auto t0 = ticks();
    inner(reply);
    record(site, t0, ticks());
  };
}

}  // namespace perfbench
