// Shared setup for the figure-reproduction benchmarks: the standard scaled
// experiment (100k-object catalog in 1,000-object buckets; 2,000-query
// SDSS-like trace — see DESIGN.md §5 for the scaling argument) and wrappers
// that run one scheduler/mode over one arrival schedule.

#ifndef LIFERAFT_BENCH_BENCH_COMMON_H_
#define LIFERAFT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sched/least_sharable.h"
#include "sched/liferaft_scheduler.h"
#include "sched/round_robin.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "util/table.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::bench {

/// The standard experiment fixture.
struct Standard {
  std::unique_ptr<storage::Catalog> catalog;
  std::vector<query::CrossMatchQuery> trace;
};

// The benchmark suite runs the paper's experiment under a uniform 10x
// object scale-down (DESIGN.md §5): one simulated object stands for ten of
// the paper's, so a 1,000-object bucket represents the paper's
// 10,000-object / 40 MB bucket. Per-object costs scale up 10x to
// compensate, leaving every cost *ratio* — T_b per bucket, T_m share of a
// batch, the scan-vs-probe break-even at ~3% — identical to the paper's:
//
//   T_b  = 1.2 s per bucket   (seek 6 ms + 4 MB at 3.35 MB/s)
//   T_m  = 1.3 ms per scaled object  (10 x 0.13 ms)
//   probe = 41 ms per scaled object  (10 x 4.1 ms)
//
// The catalog is 500 buckets (vs the paper's 20,000); the trace preset's
// footprints put ~10 buckets under an average query, mirroring the
// paper's measured per-query economics (NoShare ~ 0.085 q/s).
inline storage::DiskModelParams ScaledDiskParams() {
  storage::DiskModelParams p;
  p.seek_ms = 6.0;
  p.transfer_mb_per_s = 3.35;
  p.match_ms_per_object = 1.3;
  p.index_probe_ms = 41.0;
  return p;
}

struct StandardConfig {
  size_t catalog_objects = 500'000;
  size_t objects_per_bucket = 1'000;  // => 500 scaled 40 MB-equivalents
  size_t num_queries = 2'000;
  size_t max_objects_per_query = 800;
  uint64_t seed = 17;
};

inline Standard BuildStandard(const StandardConfig& config = {}) {
  Standard s;

  workload::CatalogGenConfig gen;
  gen.num_objects = config.catalog_objects;
  gen.seed = config.seed;
  auto objects = workload::GenerateCatalog(gen);
  if (!objects.ok()) {
    std::fprintf(stderr, "catalog generation failed: %s\n",
                 objects.status().ToString().c_str());
    std::exit(1);
  }
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = config.objects_per_bucket;
  auto catalog = storage::Catalog::Build(std::move(*objects),
                                         catalog_options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog build failed: %s\n",
                 catalog.status().ToString().c_str());
    std::exit(1);
  }
  s.catalog = std::move(*catalog);

  workload::TraceConfig tc = workload::LongRunningSkyQueryPreset();
  tc.num_queries = config.num_queries;
  tc.max_objects_per_query = config.max_objects_per_query;
  tc.seed = config.seed + 1;
  auto trace = workload::GenerateTrace(tc);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    std::exit(1);
  }
  s.trace = std::move(*trace);
  return s;
}

inline std::unique_ptr<sched::Scheduler> MakeLifeRaft(
    const storage::Catalog& catalog, double alpha,
    sched::MetricNormalization norm =
        sched::MetricNormalization::kNormalized) {
  sched::LifeRaftConfig config;
  config.alpha = alpha;
  config.normalization = norm;
  return std::make_unique<sched::LifeRaftScheduler>(
      catalog.store(), storage::DiskModel(ScaledDiskParams()), config);
}

/// Engine configuration with the scaled disk model installed.
inline sim::EngineConfig ScaledEngineConfig() {
  sim::EngineConfig config;
  config.disk = ScaledDiskParams();
  return config;
}

/// Runs one shared-mode experiment; aborts the bench on error (benches are
/// not tests; an error here is a build problem).
inline sim::RunMetrics RunShared(storage::Catalog* catalog,
                                 std::unique_ptr<sched::Scheduler> scheduler,
                                 const std::vector<query::CrossMatchQuery>& t,
                                 const std::vector<TimeMs>& arrivals,
                                 sim::EngineConfig config = ScaledEngineConfig()) {
  sim::SimEngine engine(catalog, std::move(scheduler), config);
  auto metrics = engine.Run(t, arrivals);
  if (!metrics.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 metrics.status().ToString().c_str());
    std::exit(1);
  }
  return *metrics;
}

inline sim::RunMetrics RunMode(storage::Catalog* catalog,
                               sim::ExecutionMode mode,
                               const std::vector<query::CrossMatchQuery>& t,
                               const std::vector<TimeMs>& arrivals) {
  sim::EngineConfig config = ScaledEngineConfig();
  config.mode = mode;
  sim::SimEngine engine(catalog, nullptr, config);
  auto metrics = engine.Run(t, arrivals);
  if (!metrics.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 metrics.status().ToString().c_str());
    std::exit(1);
  }
  return *metrics;
}

/// Prints a section header so `for b in build/bench/*` output reads as a
/// report.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

}  // namespace liferaft::bench

#endif  // LIFERAFT_BENCH_BENCH_COMMON_H_
