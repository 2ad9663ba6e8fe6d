// perfbench/src/main.cpp — one workload, one process.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --report <file> [--chrome <file>]
//
// Sets the workload up five times (setup_s is the median), runs one
// untimed warm-up pass where the workload asks for it, then runs passes
// until --seconds have gone. An untraced run measures the end-to-end
// metrics. A traced run alternates untraced and traced passes: the traced
// ones give the per-layer metrics, their output digests must equal the
// untraced ones', and the wall-time difference is the tracing overhead.
// Every pass of a run must produce the same digest. The full report,
// machine stamp included, goes to --report as JSON; run.py turns it into
// the benchmark's result line.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef BEHOLDER6_DCHECK_LEVEL
#define BEHOLDER6_DCHECK_LEVEL -1
#endif

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "table7_sweep") return make_table7(false);
  if (name == "table7_stream_churn") return make_table7(true);
  if (name == "service_waves") return make_service_waves();
  if (name == "service_elephant") return make_service_elephant();
  return nullptr;
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report_path;  // full report (JSON), always written
  std::string chrome_path;  // Chrome trace, traced runs only
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(val);
    else if (key == "--trace") o.trace = std::strcmp(val, "0") != 0;
    else if (key == "--report") o.report_path = val;
    else if (key == "--chrome") o.chrome_path = val;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.report_path.empty() &&
         o.seconds > 0;
}

/// Hand the memory a pass freed back to the OS, outside the timed region,
/// so the process high-water mark is one pass's footprint and does not
/// grow with how many passes the machine's speed allowed.
void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_map(std::FILE* f, const char* key,
               const std::map<std::string, double>& m) {
  std::fprintf(f, ",\n  %s: {", json_string(key).c_str());
  const char* sep = "\n";
  for (const auto& [k, v] : m) {
    // JSON has no NaN or infinity; a failed pass can leave either behind.
    std::fprintf(f, "%s    %s: %.17g", sep, json_string(k).c_str(),
                 std::isfinite(v) ? v : 0.0);
    sep = ",\n";
  }
  std::fprintf(f, "\n  }");
}

/// Everything a run measured, as run() hands it to the report.
struct Run {
  double peak_rss_mb = 0;  // after setup, the warm-up and one timed pass
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  std::vector<PassOut> warm, untraced, traced;
};

Run run_passes(const Options& o, Workload& workload, Timeline& timeline) {
  Run run;
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = now_ns();
    workload.setup(o.seed);
    const auto t1 = now_ns();
    run.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    timeline.add({"setup", "setup", static_cast<std::uint64_t>(i), t0, t1,
                  thread_lane(), false});
    for (const auto& [k, v] : workload.setup_layers())
      run.setup_layers[k].push_back(v);
  }
  auto timed_pass = [&](bool traced, const std::string& label,
                        std::uint64_t i) {
    const auto t0 = now_ns();
    PassOut out;
    try {
      out = workload.pass(traced ? &timeline : nullptr);
    } catch (const std::exception& e) {
      out.fail(std::string("pass threw: ") + e.what());
    }
    const auto t1 = now_ns();
    release_freed_memory();
    timeline.add({std::string(workload.pass_name()) + label, "pass", i, t0,
                  t1, thread_lane(), false});
    return std::pair{std::move(out), static_cast<double>(t1 - t0) / 1e9};
  };
  if (workload.warm_up())
    run.warm.push_back(timed_pass(false, " (warm-up)", 0).first);
  // Passes until the time is up: at least one (a traced run: one of
  // each), and none that would overrun --seconds by half again.
  const auto start = now_ns();
  double longest = 0;
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    const bool need_more =
        run.untraced.empty() || (o.trace && run.traced.empty());
    if (!need_more &&
        (elapsed >= o.seconds || elapsed + longest > 1.5 * o.seconds))
      break;
    const bool traced = o.trace && i % 2 == 1;
    auto [out, seconds] = timed_pass(traced, traced ? " (traced)" : "", i);
    longest = std::max(longest, seconds);
    (traced ? run.traced : run.untraced).push_back(std::move(out));
    // Taken at a fixed point of the work: later passes can still raise the
    // high-water mark through allocator fragmentation, and how many of
    // them fit depends on the machine's speed.
    if (i == 0) run.peak_rss_mb = peak_rss_mb();
  }
  return run;
}

/// End-to-end metrics, from the untraced passes: each percentile is taken
/// per pass, and the metric is its median over the passes, so one pass
/// disturbed by the machine cannot move it.
std::map<std::string, double> end_to_end(const Run& run) {
  std::vector<double> rates;
  std::map<std::string, std::vector<double>> per_pass;
  for (const auto& p : run.untraced) {
    rates.push_back(static_cast<double>(p.probes) / p.engine_s);
    const std::pair<const char*, const std::vector<float>*> samples[] = {
        {"step_p%d_us", &p.step_us},
        {"submit_p%d_us", &p.submit_us},
        {"last_result_p%d_s", &p.last_result_s}};
    for (const auto& [pattern, values] : samples) {
      for (const int pct : {50, 99}) {
        char name[32];
        std::snprintf(name, sizeof name, pattern, pct);
        per_pass[name].push_back(percentile(*values, pct / 100.0));
      }
    }
  }
  std::map<std::string, double> e2e{
      {"setup_s", median(run.setup_s)},
      {"probes_per_s", median(rates)},
      {"peak_rss_mb", run.peak_rss_mb},
  };
  for (const auto& [name, values] : per_pass) e2e[name] = median(values);
  return e2e;
}

/// Per-layer metrics: medians over the traced passes, plus those only an
/// untraced pass measures, the setup layers and the tracing overhead.
std::map<std::string, double> per_layer(const Run& run) {
  std::map<std::string, std::vector<double>> acc;
  std::vector<double> traced_s, untraced_s;
  for (const auto& p : run.traced) {
    for (const auto& [k, v] : p.layer) acc[k].push_back(v);
    traced_s.push_back(p.engine_s);
  }
  for (const auto& p : run.untraced) {
    for (const auto& [k, v] : p.layer_untraced) acc[k].push_back(v);
    untraced_s.push_back(p.engine_s);
  }
  for (const auto& [k, v] : run.setup_layers) acc[k] = v;
  std::map<std::string, double> layer;
  for (const auto& [k, v] : acc) layer[k] = median(v);
  layer["trace.overhead"] = median(traced_s) / median(untraced_s) - 1.0;
  return layer;
}

bool write_report(const Options& o, const Run& run, std::uint64_t digest,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::string>& errors,
                  const std::map<std::string, double>& e2e,
                  const std::map<std::string, double>& layer) {
  std::FILE* f = std::fopen(o.report_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %" PRIu64
               ",\n  \"trace\": %d,\n",
               json_string(o.workload).c_str(), o.seed, o.trace ? 1 : 0);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::fprintf(f,
               "  \"stamp\": {\"hardware_threads\": %u, \"nproc\": %u, "
               "\"compiler\": %s, \"build_type\": %s, \"dcheck\": %d},\n",
               std::thread::hardware_concurrency(), worker_threads(),
               json_string(compiler).c_str(),
               json_string(PERFBENCH_BUILD_TYPE).c_str(),
               BEHOLDER6_DCHECK_LEVEL);
  std::fprintf(f, "  \"digest\": \"%016" PRIx64 "\",\n", digest);
  std::fprintf(f, "  \"attempted\": %" PRIu64 ",\n  \"failed\": %" PRIu64,
               attempted, failed);
  std::fprintf(f, ",\n  \"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i)
    std::fprintf(f, "%s%s", i ? ", " : "", json_string(errors[i]).c_str());
  std::fprintf(f, "],\n  \"pass_engine_s\": [");
  for (std::size_t i = 0; i < run.untraced.size(); ++i)
    std::fprintf(f, "%s%.6f", i ? ", " : "", run.untraced[i].engine_s);
  // Log2 histograms of per-call cost (bucket b counts calls of
  // [2^(b-1), 2^b) ns) from the first traced pass.
  std::fprintf(f, "],\n  \"histograms_log2_ns\": {");
  for (std::size_t s = 0; s < kSites && !run.traced.empty(); ++s) {
    std::fprintf(f, "%s\n    %s: [", s ? "," : "",
                 json_string(kSiteNames[s]).c_str());
    const auto& h = run.traced.front().sites[s].log2_ns;
    for (std::size_t b = 0; b < h.size(); ++b)
      std::fprintf(f, "%s%" PRIu64, b ? ", " : "", h[b]);
    std::fprintf(f, "]");
  }
  std::fprintf(f, "\n  }");
  write_map(f, "end_to_end", e2e);
  write_map(f, "per_layer", layer);
  const auto samples = [&](std::vector<float> PassOut::*field) {
    double n = 0;
    for (const auto& p : run.untraced)
      n += static_cast<double>((p.*field).size());
    return n;
  };
  write_map(f, "info",
            {{"passes_untraced", static_cast<double>(run.untraced.size())},
             {"passes_traced", static_cast<double>(run.traced.size())},
             {"probes_per_pass",
              static_cast<double>(run.untraced.front().probes)},
             {"step_samples", samples(&PassOut::step_us)},
             {"submit_samples", samples(&PassOut::submit_us)},
             {"last_result_samples", samples(&PassOut::last_result_s)}});
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

int run(const Options& o) {
  auto workload = make_workload(o.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  Timeline timeline;
  (void)ns_per_tick();  // calibrate before anything is timed
  const auto origin = now_ns();
  const Run run = run_passes(o, *workload, timeline);
  timeline.add({o.workload, "workload", 0, origin, now_ns(), thread_lane(),
                false});

  // Correctness: every pass's checks, and one digest for all passes.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const std::uint64_t digest = run.untraced.front().digest;
  for (const auto* passes : {&run.warm, &run.untraced, &run.traced}) {
    for (const auto& p : *passes) {
      attempted += p.attempted;
      failed += p.failed;
      errors.insert(errors.end(), p.errors.begin(), p.errors.end());
      if (p.digest != digest) {
        ++failed;
        errors.push_back("a pass's output digest differs from the first's");
      }
    }
  }

  const auto e2e = end_to_end(run);
  std::map<std::string, double> layer;
  if (o.trace) {
    layer = per_layer(run);
    if (!o.chrome_path.empty() && !timeline.write_chrome(o.chrome_path, origin))
      errors.push_back("cannot write " + o.chrome_path);
  }
  if (!write_report(o, run, digest, attempted, failed, errors, e2e, layer)) {
    std::fprintf(stderr, "cannot write %s\n", o.report_path.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %zu+%zu passes, digest %016" PRIx64
               ", %" PRIu64 "/%" PRIu64 " ops failed, %.0f probes/s\n",
               o.workload.c_str(), o.seed, run.untraced.size(),
               run.traced.size(), digest, failed, attempted,
               e2e.at("probes_per_s"));
  for (const auto& e : errors) std::fprintf(stderr, "  error: %s\n", e.c_str());
  return failed == 0 && errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --report <file> [--chrome <file>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(o);
}
