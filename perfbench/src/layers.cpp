// perfbench/src/layers.cpp — the outside-in wrappers and the span timeline.
#include "layers.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

double ns_per_tick() {
  static const double ratio = [] {
    const auto n0 = now_ns();
    const auto t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto n1 = now_ns();
    const auto t1 = ticks();
    if (t1 <= t0) return 1.0;
    return static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
  }();
  return ratio;
}

std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

namespace {

std::mutex g_sites_mu;
SiteStats g_sites{};

/// One thread's call-site block; folded into g_sites when the thread exits.
struct ThreadSites {
  SiteStats stats{};
  ~ThreadSites() {
    std::lock_guard lock{g_sites_mu};
    for (std::size_t i = 0; i < kSites; ++i) g_sites[i] += stats[i];
  }
};
thread_local ThreadSites t_sites;

}  // namespace

void record(Site site, std::uint64_t t0, std::uint64_t t1) {
  t_sites.stats[site].add_ticks(t0, t1);
}

SiteStats take_site_stats() {
  std::lock_guard lock{g_sites_mu};
  for (std::size_t i = 0; i < kSites; ++i) g_sites[i] += t_sites.stats[i];
  t_sites.stats = {};
  return std::exchange(g_sites, {});
}

double add_prober_layers(const SiteStats& sites,
                         std::map<std::string, double>& layer) {
  double probing_s = 0;
  for (std::size_t c = kNext; c <= kEpochMerge; ++c) {
    const std::string name = kSiteNames[c];
    layer[name + ".calls"] = static_cast<double>(sites[c].calls);
    layer[name + ".self_s"] = sites[c].seconds();
    if (c != kSplit) probing_s += sites[c].seconds();
  }
  return probing_s;
}

void Timeline::add(Span span) {
  std::lock_guard lock{mu_};
  spans_.push_back(std::move(span));
}

std::size_t Timeline::span_count() const {
  std::lock_guard lock{mu_};
  return spans_.size();
}

std::vector<Span> Timeline::spans_from(std::size_t mark) const {
  std::lock_guard lock{mu_};
  const auto from = static_cast<std::ptrdiff_t>(std::min(mark, spans_.size()));
  return {spans_.begin() + from, spans_.end()};
}

bool Timeline::write_chrome(const std::string& path,
                            std::uint64_t origin_ns) const {
  std::lock_guard lock{mu_};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [origin_ns](std::uint64_t ns) {
    return static_cast<double>(ns - std::min(ns, origin_ns)) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  const char* sep = "\n";
  auto async_event = [&](const Span& s, char ph, std::uint64_t ns) {
    std::fprintf(f,
                 "%s{\"ph\": \"%c\", \"name\": \"%s\", \"cat\": \"%s\", "
                 "\"id\": %llu, \"pid\": 1, \"tid\": %u, \"ts\": %.3f}",
                 sep, ph, s.name.c_str(), s.cat.c_str(),
                 static_cast<unsigned long long>(s.id), s.tid, us(ns));
    sep = ",\n";
  };
  for (const Span& s : spans_) {
    if (s.async) {
      async_event(s, 'b', s.start_ns);
      async_event(s, 'e', s.end_ns);
      continue;
    }
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu}}",
                 sep, s.name.c_str(), s.cat.c_str(), s.tid, us(s.start_ns),
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TracedSource::begin(std::uint64_t now_us) {
  begin_ns_ = now_ns();
  begin_lane_ = thread_lane();
  inner_->begin(now_us);
}

b6::campaign::Poll TracedSource::next(std::uint64_t now_us) {
  const auto t0 = ticks();
  const auto poll = inner_->next(now_us);
  record(kNext, t0, ticks());
  return poll;
}

void TracedSource::on_reply(const b6::campaign::Probe& probe,
                            const b6::wire::DecodedReply& reply,
                            std::uint64_t now_us) {
  const auto t0 = ticks();
  inner_->on_reply(probe, reply, now_us);
  record(kOnReply, t0, ticks());
}

void TracedSource::on_probe_done(const b6::campaign::Probe& probe,
                                 bool answered, std::uint64_t now_us) {
  const auto t0 = ticks();
  inner_->on_probe_done(probe, answered, now_us);
  record(kOnProbeDone, t0, ticks());
}

void TracedSource::finish(b6::campaign::ProbeStats& stats) const {
  inner_->finish(stats);
  if (tap_.timeline == nullptr || begin_ns_ == 0) return;
  Span span;
  span.name = tap_.cat + " " + std::to_string(tap_.key) + "." +
              std::to_string(member_);
  span.cat = tap_.cat;
  span.id = (tap_.key << 8) | member_;
  span.start_ns = begin_ns_;
  span.end_ns = now_ns();
  span.tid = tap_.async ? begin_lane_ : thread_lane();
  span.async = tap_.async;
  tap_.timeline->add(std::move(span));
}

std::vector<std::unique_ptr<b6::campaign::ProbeSource>> TracedSource::split(
    std::uint64_t k) const {
  const auto t0 = ticks();
  auto children = inner_->split(k);
  record(kSplit, t0, ticks());
  if (children.empty()) return children;
  // Siblings of an epoch-coupled family return one barrier; they must keep
  // sharing one (wrapped) barrier or the family protocol breaks.
  std::shared_ptr<TracedBarrier> barrier;
  if (auto* inner_barrier = children.front()->epoch_barrier())
    barrier = std::make_shared<TracedBarrier>(*inner_barrier);
  std::vector<std::unique_ptr<b6::campaign::ProbeSource>> wrapped;
  wrapped.reserve(children.size());
  for (std::size_t i = 0; i < children.size(); ++i)
    wrapped.push_back(std::make_unique<TracedSource>(
        std::move(children[i]), barrier, tap_,
        static_cast<std::uint32_t>(i)));
  return wrapped;
}

b6::campaign::EpochBarrier* TracedSource::epoch_barrier() const {
  if (barrier_) return barrier_.get();
  return inner_->epoch_barrier();
}

void TracedBarrier::merge_epoch() {
  const auto t0 = ticks();
  inner_->merge_epoch();
  record(kEpochMerge, t0, ticks());
}

}  // namespace perfbench
