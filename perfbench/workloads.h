// The benchmark's workloads: input generation (untimed, once per seed) and
// the measured runs. See README.md in this directory for why each workload
// exists and what each metric is predicted to move.

#ifndef LRBENCH_WORKLOADS_H_
#define LRBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lrbench {

struct Options {
  std::string workload;  // drain-io | drain-join | serve-mixed
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test.
  bool tiny = false;
  /// Adds one to a reference match count, so the output check must fail.
  bool perturb_reference = false;
  /// Drains only: query i arrives at 5 ms * i instead of t=0, to show
  /// whether the real-mode engine clock runs ahead of the wall clock.
  bool spread_arrivals = false;
  /// Directory holding the generated inputs.
  std::string dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when any output check failed or a run did not complete.
  bool correct = true;
  std::vector<Metric> metrics;
  /// Machine and run context, printed beside the result.
  std::vector<std::pair<std::string, std::string>> context;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
};

bool KnownWorkload(const std::string& name);

/// Writes the inputs of `opt.workload` for `opt.seed` into `opt.dir`:
/// catalog, trace, reference match counts and fingerprint.json.
/// Returns false (after printing why) on error.
bool Generate(const Options& opt);

/// Runs the workload over the inputs in `opt.dir`. Returns false (after
/// printing why) when the harness itself cannot run.
bool Run(const Options& opt, Report* report);

}  // namespace lrbench

#endif  // LRBENCH_WORKLOADS_H_
