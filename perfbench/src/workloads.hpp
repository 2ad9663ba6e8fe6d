// perfbench/src/workloads.hpp — the four named workloads.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common.hpp"

namespace perfbench {

/// One workload: inputs built by setup(), measured work run by pass().
/// Every pass rebuilds the stateful sources from the inputs, so all passes
/// of a run do identical work and must produce identical digests.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from the seed: topology, seed lists, target sets,
  /// schedules and campaign specs. Called several times; each is timed.
  virtual void setup(std::uint64_t seed) = 0;
  /// Layer costs of the latest setup (seeds.make_all_s, target.synthesize_s).
  [[nodiscard]] virtual std::map<std::string, double> setup_layers() const = 0;
  /// Run the measured work once. `timeline` is null for an untraced pass;
  /// a traced pass wraps every source and sink and fills PassOut::layer.
  virtual PassOut pass(Timeline* timeline) = 0;
  /// Span name of one pass in the Chrome trace.
  [[nodiscard]] virtual const char* pass_name() const = 0;
  /// Whether a run starts with one untimed pass (checked like the others):
  /// true where a pass is short, so the first timed pass finds the
  /// allocator and caches warm; a service_waves pass is long enough to
  /// time as it comes.
  [[nodiscard]] virtual bool warm_up() const { return true; }
};

/// Nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

std::unique_ptr<Workload> make_table7(bool stream_churn);
std::unique_ptr<Workload> make_service_waves();
std::unique_ptr<Workload> make_service_elephant();

}  // namespace perfbench
