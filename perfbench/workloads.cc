#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/liferaft.h"
#include "query/preprocessor.h"
#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "tracing.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace lrbench {
namespace {

namespace lr = liferaft;
using lr::query::CrossMatchQuery;
using lr::query::QueryId;

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------------ specs

/// Everything a workload fixes. Knobs not set here stay at the library's
/// defaults (EngineConfig, LifeRaftConfig, LifeRaftOptions, TraceConfig).
struct Spec {
  /// Drains run SimEngine waves; serve-mixed paces core::LifeRaft.
  bool drain = true;
  size_t objects = 0;
  size_t per_bucket = 0;
  lr::workload::TraceConfig trace;
  // Drains: one real-I/O SimEngine::Run per wave.
  size_t volumes = 1;
  size_t cache_capacity = 20;  // 0 = every bucket of the catalog
  bool prefetch = false;
  size_t prefetch_depth = 1;
  // serve-mixed: open-loop Poisson arrivals paced on the wall clock.
  double rate_qps = 0.0;
  int setup_reps = 3;
};

Spec SpecFor(const Options& opt) {
  Spec s;
  s.trace.seed = opt.seed + 1'000'003;
  if (opt.workload == "drain-io") {
    s.objects = opt.tiny ? 200'000 : 4'000'000;
    s.per_bucket = opt.tiny ? 2'000 : 10'000;
    s.trace.num_queries = opt.tiny ? 100 : 1000;
    s.trace.min_radius_deg = 5.0;
    s.trace.max_radius_deg = 60.0;
    s.trace.objects_per_sq_deg = 0.05;
    s.trace.max_objects_per_query = 150;
    s.trace.match_radius_arcsec = 3.0;
    s.volumes = 2;
    s.cache_capacity = 20;
    s.prefetch = true;
    s.prefetch_depth = 2;
  } else if (opt.workload == "drain-join") {
    s.objects = opt.tiny ? 100'000 : 1'000'000;
    s.per_bucket = opt.tiny ? 2'000 : 10'000;
    // Default radii at 20 objects/deg², but at most 2000 objects a query
    // instead of 8000: with the default cap a fifth of the queries carry
    // most of the join work, and a wave's total work swings with how many
    // of them a seed draws.
    s.trace.num_queries = opt.tiny ? 100 : 1500;
    s.trace.max_objects_per_query = 2000;
    s.trace.objects_per_sq_deg = 20.0;
    s.trace.match_radius_arcsec = 10.0;
    s.volumes = 1;
    s.cache_capacity = 0;
  } else {
    s.drain = false;
    s.objects = opt.tiny ? 50'000 : 500'000;
    s.per_bucket = lr::core::LifeRaftOptions{}.objects_per_bucket;
    s.rate_qps = opt.tiny ? 50.0 : 250.0;
    s.trace.num_queries = static_cast<size_t>(
        std::max(1.0, std::ceil(s.rate_qps * opt.seconds)));
    s.trace.p_small = 0.5;
    s.trace.objects_per_sq_deg = 20.0;
    s.trace.match_radius_arcsec = 10.0;
  }
  if (opt.tiny) s.setup_reps = 1;
  return s;
}

std::string CatalogPath(const Options& o) { return o.dir + "/catalog.lfr"; }
std::string ObjectsPath(const Options& o) { return o.dir + "/objects.bin"; }
std::string QueriesPath(const Options& o) { return o.dir + "/queries.bin"; }
std::string ArrivalsPath(const Options& o) { return o.dir + "/arrivals.bin"; }
std::string ReferencePath(const Options& o) {
  return o.dir + "/reference.txt";
}

// ---------------------------------------------------------------- helpers

[[noreturn]] void Die(const std::string& what, const lr::Status& st) {
  std::fprintf(stderr, "lrbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(lr::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}

void MustOk(const lr::Status& st, const std::string& what) {
  if (!st.ok()) Die(what, st);
}

template <typename T>
bool WriteRaw(const std::string& path, const std::vector<T>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = v.empty() ||
            std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
  return std::fclose(f) == 0 && ok;
}

template <typename T>
bool ReadRaw(const std::string& path, std::vector<T>* v) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamsize bytes = in.tellg();
  if (bytes < 0 || bytes % static_cast<std::streamsize>(sizeof(T)) != 0) {
    return false;
  }
  v->resize(static_cast<size_t>(bytes) / sizeof(T));
  in.seekg(0);
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(v->data()), bytes));
}

bool ReadBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Reference match counts by query id, as written by Generate.
std::unordered_map<QueryId, uint64_t> LoadReference(const Options& opt) {
  std::unordered_map<QueryId, uint64_t> ref;
  std::ifstream in(ReferencePath(opt));
  unsigned long long id = 0;
  unsigned long long matches = 0;
  while (in >> id >> matches) ref[id] = matches;
  if (opt.perturb_reference && !ref.empty()) {
    QueryId first = ref.begin()->first;
    for (const auto& [qid, m] : ref) first = std::min(first, qid);
    ++ref[first];
  }
  return ref;
}

void AddMachineContext(const Options& opt, Report* r) {
  r->Note("workload", opt.workload);
  r->Note("seed", std::to_string(opt.seed));
  r->Note("trace", opt.trace ? "1" : "0");
  r->Note("nproc", std::to_string(Nproc()));
  r->Note("cpu_model", CpuModel());
  r->Note("compiler", LRBENCH_COMPILER);
  r->Note("build_type", LRBENCH_BUILD_TYPE);
}

/// Per-query bookkeeping shared by every workload: which class a query
/// belongs to and what its reference match count is.
struct QueryTable {
  std::unordered_map<QueryId, size_t> index;  // id -> trace position
  std::vector<uint64_t> expected;             // by trace position
  std::vector<bool> interactive;              // by trace position
  std::vector<size_t> parts;                  // by trace position
};

QueryTable MakeQueryTable(const std::vector<CrossMatchQuery>& trace,
                          const std::unordered_map<QueryId, uint64_t>& ref,
                          const lr::storage::BucketMap& map) {
  const size_t interactive_max = lr::sim::ServeConfig{}.interactive_max_parts;
  QueryTable t;
  t.expected.resize(trace.size(), UINT64_MAX);
  t.interactive.resize(trace.size());
  t.parts.resize(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    t.index[trace[i].id] = i;
    auto it = ref.find(trace[i].id);
    if (it != ref.end()) t.expected[i] = it->second;
    t.parts[i] = lr::query::SplitQueryByBucket(trace[i], map).size();
    t.interactive[i] = t.parts[i] <= interactive_max;
  }
  return t;
}

/// Keeps timed results observable so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

/// Times SplitQueryByBucket over the whole trace (the call admission
/// makes); median of three passes, in ms.
double SplitMs(const std::vector<CrossMatchQuery>& trace,
               const lr::storage::BucketMap& map) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = NowNs();
    for (const CrossMatchQuery& q : trace) {
      g_sink = g_sink + lr::query::SplitQueryByBucket(q, map).size();
    }
    reps.push_back(MsSince(t0));
  }
  return Median(reps);
}

/// util::Crc32 throughput over a file's bytes; median of three passes.
double Crc32MbPerS(const std::string& path) {
  std::string bytes;
  if (!ReadBytes(path, &bytes) || bytes.empty()) return 0.0;
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = NowNs();
    g_sink = g_sink + lr::Crc32(bytes.data(), bytes.size());
    reps.push_back(static_cast<double>(bytes.size()) / kMiB /
                   (MsSince(t0) / 1000.0));
  }
  return Median(reps);
}

// ------------------------------------------------------------ query file

// The generated queries with their HTM cover ranges, so loading them costs
// no cover computation (which dominates GenerateTrace). Native byte order;
// the file never leaves the machine that wrote it.

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool Get(const std::string& in, size_t* pos, T* v) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

std::string EncodeQueries(const std::vector<CrossMatchQuery>& queries) {
  std::string out;
  Put<uint64_t>(&out, queries.size());
  for (const CrossMatchQuery& q : queries) {
    Put(&out, q.id);
    Put(&out, q.arrival_ms);
    Put(&out, q.predicate);
    Put<uint64_t>(&out, q.label.size());
    out += q.label;
    Put<uint64_t>(&out, q.objects.size());
    for (const lr::query::QueryObject& o : q.objects) {
      Put(&out, o.id);
      Put(&out, o.pos);
      Put(&out, o.ra_deg);
      Put(&out, o.dec_deg);
      Put(&out, o.radius_arcsec);
      const auto& ranges = o.htm_ranges.ranges();
      Put<uint64_t>(&out, ranges.size());
      for (const lr::htm::IdRange& r : ranges) Put(&out, r);
    }
  }
  return out;
}

bool DecodeQueries(const std::string& in, std::vector<CrossMatchQuery>* out) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!Get(in, &pos, &n)) return false;
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    CrossMatchQuery q;
    uint64_t label_len = 0;
    uint64_t num_objects = 0;
    if (!Get(in, &pos, &q.id) || !Get(in, &pos, &q.arrival_ms) ||
        !Get(in, &pos, &q.predicate) || !Get(in, &pos, &label_len) ||
        in.size() - pos < label_len) {
      return false;
    }
    q.label.assign(in, pos, label_len);
    pos += label_len;
    if (!Get(in, &pos, &num_objects)) return false;
    q.objects.resize(num_objects);
    for (lr::query::QueryObject& o : q.objects) {
      uint64_t num_ranges = 0;
      if (!Get(in, &pos, &o.id) || !Get(in, &pos, &o.pos) ||
          !Get(in, &pos, &o.ra_deg) || !Get(in, &pos, &o.dec_deg) ||
          !Get(in, &pos, &o.radius_arcsec) || !Get(in, &pos, &num_ranges) ||
          (in.size() - pos) / sizeof(lr::htm::IdRange) < num_ranges) {
        return false;
      }
      std::vector<lr::htm::IdRange> ranges(num_ranges);
      for (lr::htm::IdRange& r : ranges) Get(in, &pos, &r);
      o.htm_ranges = lr::htm::RangeSet(std::move(ranges));
      o.htm_ranges.ranges();  // normalize here, before any reader thread
    }
    out->push_back(std::move(q));
  }
  return pos == in.size();
}

std::vector<CrossMatchQuery> LoadQueries(const Options& opt) {
  std::string bytes;
  std::vector<CrossMatchQuery> queries;
  if (!ReadBytes(QueriesPath(opt), &bytes) || !DecodeQueries(bytes, &queries)) {
    Die("load queries", lr::Status::Corruption(QueriesPath(opt)));
  }
  return queries;
}

// ---------------------------------------------------------------- generate

/// GenerateTrace in four chunks on four threads (cover computation
/// dominates it): chunk c draws its share of config.num_queries with seed
/// config.seed * 4 + c, so no two seeds share a chunk, and ids are
/// renumbered from 0 in chunk order. The chunking is fixed, so the result
/// depends on the config alone.
std::vector<CrossMatchQuery> GenerateQueries(
    const lr::workload::TraceConfig& config) {
  constexpr size_t kChunks = 4;
  const size_t chunks = std::min(kChunks, config.num_queries);
  std::vector<std::vector<CrossMatchQuery>> parts(chunks);
  std::vector<lr::Status> status(chunks);
  std::vector<std::thread> workers;
  for (size_t c = 0; c < chunks; ++c) {
    workers.emplace_back([&, c] {
      lr::workload::TraceConfig part = config;
      part.num_queries = config.num_queries / chunks +
                         (c < config.num_queries % chunks ? 1 : 0);
      part.seed = config.seed * chunks + c;
      auto r = lr::workload::GenerateTrace(part);
      if (r.ok()) {
        parts[c] = std::move(r).value();
      } else {
        status[c] = r.status();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<CrossMatchQuery> queries;
  for (size_t c = 0; c < chunks; ++c) {
    MustOk(status[c], "generate trace");
    for (CrossMatchQuery& q : parts[c]) {
      q.id = queries.size();
      queries.push_back(std::move(q));
    }
  }
  return queries;
}


bool WriteReference(const Options& opt, const Spec& spec,
                    std::vector<lr::storage::CatalogObject> objects,
                    const std::vector<CrossMatchQuery>& trace) {
  // A different execution path from every measured one: per-query NoShare
  // evaluation on the modeled clock over an in-memory catalog.
  lr::storage::CatalogOptions co;
  co.objects_per_bucket = spec.per_bucket;
  auto catalog =
      Must(lr::storage::Catalog::Build(std::move(objects), co), "build catalog");
  lr::sim::EngineConfig config;
  config.mode = lr::sim::ExecutionMode::kNoShare;
  config.collect_matches = true;
  config.num_threads = Nproc();
  lr::sim::SimEngine engine(catalog.get(), nullptr, config);
  std::vector<lr::TimeMs> zeros(trace.size(), 0.0);
  Must(engine.Run(trace, zeros), "reference run");
  if (engine.outcomes().size() != trace.size()) {
    std::fprintf(stderr, "lrbench: reference run completed %zu of %zu\n",
                 engine.outcomes().size(), trace.size());
    return false;
  }
  std::vector<std::pair<QueryId, uint64_t>> rows;
  for (const auto& o : engine.outcomes()) rows.emplace_back(o.id, o.matches);
  std::sort(rows.begin(), rows.end());
  std::ofstream out(ReferencePath(opt));
  for (const auto& [id, m] : rows) out << id << ' ' << m << '\n';
  return static_cast<bool>(out);
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "drain-io" || name == "drain-join" || name == "serve-mixed";
}

bool Generate(const Options& opt) {
  const Spec spec = SpecFor(opt);
  int64_t t0 = NowNs();
  lr::workload::CatalogGenConfig gen;
  gen.num_objects = spec.objects;
  gen.seed = opt.seed;
  auto objects = Must(lr::workload::GenerateCatalog(gen), "generate catalog");
  std::fprintf(stderr, "gen: catalog %.2f s\n", MsSince(t0) / 1000);
  t0 = NowNs();
  auto trace = GenerateQueries(spec.trace);
  {
    std::ofstream out(QueriesPath(opt), std::ios::binary);
    out << EncodeQueries(trace);
    if (!out) {
      std::fprintf(stderr, "lrbench: cannot write queries\n");
      return false;
    }
  }
  std::fprintf(stderr, "gen: trace %.2f s\n", MsSince(t0) / 1000);
  t0 = NowNs();

  std::string catalog_path;
  size_t buckets = 0;
  if (spec.drain) {
    catalog_path = CatalogPath(opt);
    auto part = Must(lr::storage::PartitionCatalog(objects, spec.per_bucket),
                     "partition catalog");
    buckets = part.buckets.size();
    MustOk(lr::storage::FileStore::Create(catalog_path, part.buckets,
                                          lr::storage::BucketFormat::kColumnarV2),
           "write catalog");
  } else {
    catalog_path = ObjectsPath(opt);
    buckets = (spec.objects + spec.per_bucket - 1) / spec.per_bucket;
    lr::Rng rng(opt.seed + 2'000'003);
    auto due = Must(lr::sim::PoissonArrivals(trace.size(), spec.rate_qps, &rng),
                    "arrivals");
    if (!WriteRaw(catalog_path, objects) || !WriteRaw(ArrivalsPath(opt), due)) {
      std::fprintf(stderr, "lrbench: cannot write inputs in %s\n",
                   opt.dir.c_str());
      return false;
    }
  }
  std::fprintf(stderr, "gen: write %.2f s\n", MsSince(t0) / 1000);
  t0 = NowNs();
  if (!WriteReference(opt, spec, std::move(objects), trace)) return false;
  std::fprintf(stderr, "gen: reference %.2f s\n", MsSince(t0) / 1000);

  // The input fingerprint: a generator change shows up here as changed
  // inputs rather than as a gain or a loss.
  uint64_t query_objects = 0;
  for (const auto& q : trace) query_objects += q.objects.size();
  std::string catalog_bytes;
  std::string trace_bytes;
  if (!ReadBytes(catalog_path, &catalog_bytes) ||
      !ReadBytes(QueriesPath(opt), &trace_bytes)) {
    std::fprintf(stderr, "lrbench: cannot read back inputs\n");
    return false;
  }
  if (!spec.drain) {
    std::string due_bytes;
    ReadBytes(ArrivalsPath(opt), &due_bytes);
    trace_bytes += due_bytes;
  }
  std::ofstream fp(opt.dir + "/fingerprint.json");
  fp << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
     << ", \"objects\": " << spec.objects << ", \"buckets\": " << buckets
     << ", \"queries\": " << trace.size()
     << ", \"query_objects\": " << query_objects;
  fp
     << ", \"catalog_mb\": " << static_cast<double>(catalog_bytes.size()) / kMiB
     << ", \"catalog_fnv1a\": \"" << Hex(Fnv1a(catalog_bytes))
     << "\", \"trace_fnv1a\": \"" << Hex(Fnv1a(trace_bytes)) << "\"}\n";
  return static_cast<bool>(fp);
}

// =================================================================== drains

namespace {

struct DrainSetup {
  std::unique_ptr<lr::storage::Catalog> catalog;
  std::unique_ptr<lr::sim::SimEngine> engine;
  TracedScheduler* traced = nullptr;  // owned by engine; null when plain
  double open_ms = 0.0;               // FileStore::Open + Catalog::FromStore
  double setup_s = 0.0;               // ... + engine construction
  bool direct_io = false;
};

lr::sim::EngineConfig DrainConfig(const Spec& spec, size_t num_buckets) {
  lr::sim::EngineConfig c;
  c.io_mode = lr::sim::IoMode::kReal;
  c.collect_matches = true;
  c.cache_capacity = spec.cache_capacity == 0 ? num_buckets : spec.cache_capacity;
  c.topology.num_volumes = spec.volumes;
  if (spec.volumes > 1) c.topology.placement = lr::storage::VolumePlacement::kHash;
  c.enable_prefetch = spec.prefetch;
  c.prefetch_depth = spec.prefetch_depth;
  return c;
}

std::unique_ptr<lr::sim::SimEngine> MakeDrainEngine(
    const Spec& spec, lr::storage::Catalog* catalog, Tracer* tracer,
    TracedScheduler** traced) {
  lr::sim::EngineConfig config = DrainConfig(spec, catalog->num_buckets());
  std::unique_ptr<lr::sched::Scheduler> sched =
      std::make_unique<lr::sched::LifeRaftScheduler>(
          catalog->store(), lr::storage::DiskModel(config.disk),
          lr::sched::LifeRaftConfig{});
  if (tracer != nullptr) {
    auto wrapped = std::make_unique<TracedScheduler>(std::move(sched), tracer);
    *traced = wrapped.get();
    sched = std::move(wrapped);
  }
  return std::make_unique<lr::sim::SimEngine>(catalog, std::move(sched),
                                              config);
}

/// Opens the archive the way a user would. With a tracer, the store and
/// the scheduler are wrapped in the tracing decorators.
DrainSetup OpenDrain(const Spec& spec, const std::string& path,
                     Tracer* tracer) {
  DrainSetup s;
  const int64_t t0 = NowNs();
  auto file = Must(lr::storage::FileStore::Open(path), "open catalog");
  s.direct_io = file->direct_io_active();
  std::unique_ptr<lr::storage::BucketStore> store = std::move(file);
  if (tracer != nullptr) {
    store = std::make_unique<TracedStore>(std::move(store), tracer);
  }
  s.catalog = Must(lr::storage::Catalog::FromStore(std::move(store)),
                   "load catalog");
  s.open_ms = MsSince(t0);
  s.engine = MakeDrainEngine(spec, s.catalog.get(), tracer, &s.traced);
  s.setup_s = MsSince(t0) / 1000.0;
  return s;
}

/// One wave: a real-I/O Run of the whole trace with every arrival at t=0.
struct Wave {
  double wall_ms = 0.0;
  double owner_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  lr::sim::RunMetrics m;
  /// (query id, matches), sorted by id — compared across runs.
  std::vector<std::pair<QueryId, uint64_t>> matches;
  std::vector<double> latency;
  std::vector<double> latency_interactive;
  std::vector<double> latency_batch;
  uint64_t parts = 0;
  uint64_t failed = 0;
  bool ran = false;
};

Wave RunWave(lr::sim::SimEngine& engine,
             const std::vector<CrossMatchQuery>& trace,
             const std::vector<lr::TimeMs>& arrivals, const QueryTable& table,
             Tracer* tracer) {
  Wave w;
  const double cpu0 = ThreadCpuS();
  const double pcpu0 = ProcessCpuS();
  const int64_t t0 = NowNs();
  if (tracer != nullptr) {
    tracer->Arm();
    tracer->BeginRoot("run");
  }
  auto m = engine.Run(trace, arrivals);
  if (tracer != nullptr) {
    tracer->EndRoot();
    tracer->Disarm();
  }
  w.wall_ms = MsSince(t0);
  w.owner_cpu_s = ThreadCpuS() - cpu0;
  w.worker_cpu_s = std::max(0.0, (ProcessCpuS() - pcpu0) - w.owner_cpu_s);
  if (!m.ok()) {
    std::fprintf(stderr, "lrbench: run failed: %s\n",
                 m.status().ToString().c_str());
    w.failed = trace.size();
    return w;
  }
  w.ran = true;
  w.m = std::move(m).value();
  std::vector<bool> seen(trace.size(), false);
  for (const lr::sim::QueryOutcome& o : engine.outcomes()) {
    auto it = table.index.find(o.id);
    if (it == table.index.end() || seen[it->second]) {
      ++w.failed;
      continue;
    }
    const size_t i = it->second;
    seen[i] = true;
    w.matches.emplace_back(o.id, o.matches);
    w.parts += o.parts;
    if (o.matches != table.expected[i]) ++w.failed;
    const double ms = o.ResponseMs();
    w.latency.push_back(ms);
    (table.interactive[i] ? w.latency_interactive : w.latency_batch)
        .push_back(ms);
  }
  // Every submitted query must complete.
  for (bool s : seen) w.failed += s ? 0 : 1;
  std::sort(w.matches.begin(), w.matches.end());
  // The engine's real-mode clock must not run ahead of the wall clock
  // (it would if it jumped to future arrivals instead of waiting).
  if (w.m.makespan_ms > w.wall_ms) {
    std::fprintf(stderr, "lrbench: makespan %.3f ms exceeds wall %.3f ms\n",
                 w.m.makespan_ms, w.wall_ms);
    w.failed = trace.size();
  }
  return w;
}

void Account(const Wave& w, size_t n, Report* r) {
  r->attempted += n;
  r->failed += w.failed;
  if (w.failed > 0 || !w.ran) r->correct = false;
}

bool RunDrain(const Options& opt, const Spec& spec, Report* r) {
  auto trace = LoadQueries(opt);
  const auto ref = LoadReference(opt);
  std::vector<lr::TimeMs> arrivals(trace.size(), 0.0);
  if (opt.spread_arrivals) {
    for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = 5.0 * i;
  }
  const std::string path = CatalogPath(opt);
  const size_t n = trace.size();

  if (!opt.trace) {
    // Set-up, several times; the last one stays open for the run.
    DrainSetup s;
    std::vector<double> setup_s;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      s = DrainSetup{};  // close the previous archive before the next opens
      s = OpenDrain(spec, path, nullptr);
      setup_s.push_back(s.setup_s);
    }
    const QueryTable table =
        MakeQueryTable(trace, ref, s.catalog->bucket_map());
    r->Note("direct_io_active", s.direct_io ? "1" : "0");

    // Untimed warm-up wave on a second engine over the same catalog; its
    // scheduler decorator (never armed) notes the threads a run starts.
    {
      Tracer idle;
      TracedScheduler* probe = nullptr;
      auto warm = MakeDrainEngine(spec, s.catalog.get(), &idle, &probe);
      Account(RunWave(*warm, trace, arrivals, table, nullptr), n, r);
      r->Note("threads_started", std::to_string(probe->threads_in_run() - 1));
    }

    // Each wave runs the same trace, so every statistic is taken per wave
    // and reported as the median over waves: a wave disturbed by the host
    // moves it less than it would move a pooled percentile.
    std::vector<double> qps, p50, p99, p99_i, p99_b;
    const int64_t start = NowNs();
    while (qps.empty() || MsSince(start) < opt.seconds * 1000.0) {
      Wave w = RunWave(*s.engine, trace, arrivals, table, nullptr);
      Account(w, n, r);
      qps.push_back(static_cast<double>(w.latency.size()) / (w.wall_ms / 1000.0));
      p50.push_back(Percentile(w.latency, 50));
      p99.push_back(Percentile(w.latency, 99));
      p99_i.push_back(Percentile(w.latency_interactive, 99));
      p99_b.push_back(Percentile(w.latency_batch, 99));
    }
    r->Note("waves", std::to_string(qps.size()));
    std::string per_wave;
    for (double q : qps) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.1f", per_wave.empty() ? "" : " ", q);
      per_wave += buf;
    }
    r->Note("wave_qps", per_wave);
    r->Note("latency_samples_per_wave",
            std::to_string(n) + " (interactive " +
                std::to_string(std::count(table.interactive.begin(),
                                          table.interactive.end(), true)) +
                ")");
    r->Add("setup_s", Median(setup_s), "s");
    r->Add("qps", Median(qps), "1/s");
    r->Add("latency_p50_ms", Median(p50), "ms");
    r->Add("latency_p99_ms", Median(p99), "ms");
    r->Add("interactive_p99_ms", Median(p99_i), "ms");
    r->Add("batch_p99_ms", Median(p99_b), "ms");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // ---- traced: untraced waves, then the same number of traced waves ----
  std::vector<Wave> plain;
  double catalog_build_ms = 0.0;
  {
    DrainSetup s = OpenDrain(spec, path, nullptr);
    catalog_build_ms = s.open_ms;
    r->Note("direct_io_active", s.direct_io ? "1" : "0");
    const QueryTable table =
        MakeQueryTable(trace, ref, s.catalog->bucket_map());
    Account(RunWave(*s.engine, trace, arrivals, table, nullptr), n, r);
    const int64_t start = NowNs();
    while (plain.empty() || MsSince(start) < opt.seconds * 500.0) {
      plain.push_back(RunWave(*s.engine, trace, arrivals, table, nullptr));
      Account(plain.back(), n, r);
    }
  }
  Tracer tracer;
  DrainSetup s = OpenDrain(spec, path, &tracer);
  const QueryTable table = MakeQueryTable(trace, ref, s.catalog->bucket_map());
  // Warm-up with the decorators in place but the tracer disarmed.
  Account(RunWave(*s.engine, trace, arrivals, table, nullptr), n, r);
  std::vector<Wave> traced;
  for (size_t k = 0; k < plain.size(); ++k) {
    s.traced->ResetThreadSample();
    traced.push_back(RunWave(*s.engine, trace, arrivals, table, &tracer));
    Account(traced.back(), n, r);
    // Transparency: tracing must not change what the program computes.
    if (traced.back().matches != plain.front().matches ||
        traced.back().m.evaluator.batches != plain.front().m.evaluator.batches) {
      std::fprintf(stderr, "lrbench: traced wave %zu differs from untraced\n",
                   k);
      r->failed += n;
      r->correct = false;
    }
  }
  r->Note("threads_started", std::to_string(s.traced->threads_in_run() - 1));
  r->Note("waves", std::to_string(traced.size()));
  r->Note("spans", std::to_string(tracer.size()));
  if (!tracer.WriteTsv(opt.dir + "/spans.tsv")) {
    std::fprintf(stderr, "lrbench: cannot write spans\n");
  }

  const double k = static_cast<double>(traced.size());
  const auto totals = tracer.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  double pages = 0, bytes = 0, failures = 0, latency_sum = 0, max_depth = 0;
  double hits = 0, lookups = 0, issued = 0, claims = 0, wasted = 0;
  double owner_cpu = 0, worker_cpu = 0, batches = 0, parts = 0, hidden = 0;
  double scan = 0, indexed = 0, probes = 0, matches = 0, peak_pending = 0;
  std::vector<double> read_p99, plain_wall, traced_wall;
  for (const Wave& w : plain) plain_wall.push_back(w.wall_ms);
  for (const Wave& w : traced) {
    traced_wall.push_back(w.wall_ms);
    double p99 = 0;
    for (const auto& v : w.m.real_io) {
      pages += static_cast<double>(v.reads);
      bytes += static_cast<double>(v.bytes);
      failures += static_cast<double>(v.failures);
      latency_sum += v.total_latency_ms;
      max_depth = std::max(max_depth, static_cast<double>(v.max_queue_depth));
      p99 = std::max(p99, v.p99_latency_ms);
    }
    read_p99.push_back(p99);
    hits += static_cast<double>(w.m.cache.hits);
    lookups += static_cast<double>(w.m.cache.hits + w.m.cache.misses);
    // Real-mode prefetch bets are the pipeline's, counted per arm.
    for (const auto& v : w.m.volumes) {
      issued += static_cast<double>(v.prefetch_issued);
      claims += static_cast<double>(v.prefetch_claims);
    }
    wasted += static_cast<double>(w.m.cache.prefetch_wasted_bytes);
    owner_cpu += w.owner_cpu_s;
    worker_cpu += w.worker_cpu_s;
    batches += static_cast<double>(w.m.evaluator.batches);
    parts += static_cast<double>(w.parts);
    hidden += w.m.prefetch_hidden_ms;
    scan += static_cast<double>(w.m.evaluator.scan_batches);
    indexed += static_cast<double>(w.m.evaluator.indexed_batches);
    probes += static_cast<double>(w.m.evaluator.index_probes);
    matches += static_cast<double>(w.m.total_matches);
    peak_pending =
        std::max(peak_pending, static_cast<double>(w.m.peak_pending_objects));
  }
  const double split_ms = SplitMs(trace, s.catalog->bucket_map());
  const double service_ms = total("storage.read").total_ms;
  r->Add("storage.catalog_build_ms", catalog_build_ms, "ms");
  r->Add("storage.read.pages", pages / k, "count");
  r->Add("storage.read.mb", bytes / kMiB / k, "MB");
  r->Add("storage.read.service_ms", service_ms / k, "ms");
  r->Add("storage.read.queue_wait_ms", (latency_sum - service_ms) / k, "ms");
  r->Add("storage.read.p99_ms", Median(read_p99), "ms");
  r->Add("storage.queue.max_depth", max_depth, "count");
  r->Add("storage.read.failures", failures / k, "count");
  r->Add("storage.worker_cpu_s", worker_cpu / k, "s");
  r->Add("storage.cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  r->Add("storage.cache.prefetch_claim_ratio", issued > 0 ? claims / issued : 0.0,
         "ratio");
  r->Add("storage.cache.prefetch_wasted_mb", wasted / kMiB / k, "MB");
  r->Add("util.crc32_mb_per_s", Crc32MbPerS(path), "MB/s");
  r->Add("query.split_ms", split_ms, "ms");
  r->Add("query.peak_pending_objects", peak_pending, "count");
  r->Add("sched.pick_ms", total("sched.pick").total_ms / k, "ms");
  r->Add("sched.pick.calls", static_cast<double>(total("sched.pick").count) / k,
         "count");
  r->Add("sched.peek_ms", total("sched.peek").total_ms / k, "ms");
  r->Add("sched.peek.calls", static_cast<double>(total("sched.peek").count) / k,
         "count");
  r->Add("exec.run_ms", Median(traced_wall), "ms");
  r->Add("exec.owner.cpu_s", owner_cpu / k, "s");
  r->Add("exec.owner.io_wait_ms", total("io.wait").total_ms / k, "ms");
  r->Add("exec.owner.other_ms", tracer.RootSelfMs("run") / k - split_ms, "ms");
  r->Add("exec.batches", batches / k, "count");
  r->Add("exec.parts_per_batch", batches > 0 ? parts / batches : 0.0, "count");
  r->Add("exec.prefetch_hidden_ms", hidden / k, "ms");
  r->Add("join.scan_batches", scan / k, "count");
  r->Add("join.indexed_batches", indexed / k, "count");
  r->Add("join.index_probes", probes / k, "count");
  r->Add("join.matches", matches / k, "count");
  r->Add("harness.trace_overhead_pct",
         (Median(traced_wall) / Median(plain_wall) - 1.0) * 100.0, "%");
  return true;
}

}  // namespace

// ============================================================== serve-mixed

namespace {

constexpr uint32_t kBatchOp = UINT32_MAX;

/// The open-loop stream: arrival i submits query i (whose id is i) at
/// due_ms[i] after the start.
struct Stream {
  std::vector<CrossMatchQuery> queries;
  std::vector<double> due_ms;
  /// By arrival index: expected matches, QoS class and bucket parts.
  QueryTable table;

  size_t size() const { return due_ms.size(); }
};

/// One pass of the serve loop over a LifeRaft instance.
struct ServeRun {
  std::vector<uint64_t> matches;  // by arrival index
  std::vector<double> latency;    // by arrival index; -1 = not completed
  std::vector<double> lag_ms;     // submission delay past the due time
  /// Submit (arrival index) and batch (kBatchOp) calls, in order.
  std::vector<uint32_t> ops;
  std::vector<lr::storage::BucketIndex> batch_buckets;
  double last_completion_ms = 0.0;
  double busy_ms = 0.0;
  double owner_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  bool error = false;
};

ServeRun NewServeRun(size_t n) {
  ServeRun run;
  run.matches.assign(n, 0);
  run.latency.assign(n, -1.0);
  return run;
}

/// Records one batch; `due` is null when replaying (no latencies).
void ApplyBatch(const lr::core::BatchOutcome& b, double now_ms,
                const std::vector<double>* due, ServeRun* run) {
  run->batch_buckets.push_back(b.bucket);
  for (const auto& m : b.matches) {
    if (m.query_id < run->matches.size()) ++run->matches[m.query_id];
  }
  for (QueryId id : b.completed) {
    if (id >= run->latency.size()) continue;
    run->latency[id] = due != nullptr ? now_ms - (*due)[id] : 0.0;
    run->last_completion_ms = std::max(run->last_completion_ms, now_ms);
  }
}

/// Submit or batch, spanned when `tracer` is armed. Returns false on error.
bool DoOp(lr::core::LifeRaft& lr, Stream& stream, uint32_t op, Tracer* tracer,
          std::optional<lr::core::BatchOutcome>* batch) {
  if (op != kBatchOp) {
    const CrossMatchQuery& q = stream.queries[op];
    ScopedSpan span(tracer, "core.submit", static_cast<int64_t>(q.id));
    lr::Status st = lr.Submit(q);
    if (!st.ok()) std::fprintf(stderr, "lrbench: submit: %s\n", st.ToString().c_str());
    return st.ok();
  }
  ScopedSpan span(tracer, "core.batch");
  auto b = lr.ProcessNextBatch(true);
  if (!b.ok() || !b->has_value()) {
    std::fprintf(stderr, "lrbench: batch failed with work pending\n");
    return false;
  }
  *batch = std::move(*b);
  return true;
}

/// Open loop: arrival i is submitted once the wall clock passes its due
/// time; in between, pending work is processed one batch at a time.
/// Latency runs from the due time, so a late submission is charged to the
/// query.
ServeRun Pace(lr::core::LifeRaft& lr, Stream& stream, Tracer* tracer) {
  const size_t n = stream.size();
  ServeRun run = NewServeRun(n);
  run.lag_ms.assign(n, 0.0);
  const double cpu0 = ThreadCpuS();
  const double pcpu0 = ProcessCpuS();
  const int64_t start = NowNs();
  if (tracer != nullptr) {
    tracer->Arm();
    tracer->BeginRoot("serve");
  }
  size_t next = 0;
  size_t done = 0;
  while (done < n && !run.error) {
    double now = MsSince(start);
    while (next < n && stream.due_ms[next] <= now && !run.error) {
      run.lag_ms[next] = now - stream.due_ms[next];
      run.error = !DoOp(lr, stream, static_cast<uint32_t>(next), tracer, nullptr);
      run.ops.push_back(static_cast<uint32_t>(next));
      ++next;
      now = MsSince(start);
    }
    if (lr.pending_queries() > 0) {
      std::optional<lr::core::BatchOutcome> b;
      run.error = !DoOp(lr, stream, kBatchOp, tracer, &b) || run.error;
      run.ops.push_back(kBatchOp);
      if (!b.has_value()) break;
      done += b->completed.size();
      ApplyBatch(*b, MsSince(start), &stream.due_ms, &run);
    } else if (next < n) {
      ScopedSpan span(tracer, "core.idle");
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(
              start + static_cast<int64_t>(stream.due_ms[next] * 1e6))));
    } else {
      break;  // nothing pending and nothing left to submit
    }
  }
  if (tracer != nullptr) {
    tracer->EndRoot();
    tracer->Disarm();
  }
  run.owner_cpu_s = ThreadCpuS() - cpu0;
  run.worker_cpu_s = std::max(0.0, (ProcessCpuS() - pcpu0) - run.owner_cpu_s);
  return run;
}

/// Re-issues a recorded sequence of Submit/ProcessNextBatch calls with no
/// pacing. LifeRaft runs on its virtual clock, so the same calls must give
/// the same batches and matches, traced or not.
ServeRun Replay(lr::core::LifeRaft& lr, Stream& stream,
                const std::vector<uint32_t>& ops, Tracer* tracer) {
  ServeRun run = NewServeRun(stream.size());
  const int64_t start = NowNs();
  for (uint32_t op : ops) {
    std::optional<lr::core::BatchOutcome> b;
    if (!DoOp(lr, stream, op, tracer, &b)) {
      run.error = true;
      break;
    }
    if (b.has_value()) ApplyBatch(*b, 0.0, nullptr, &run);
  }
  run.busy_ms = MsSince(start);
  return run;
}

/// Arrivals of `run` that did not complete or whose match count differs
/// from the reference.
uint64_t CountFailed(const ServeRun& run, const QueryTable& table) {
  if (run.error) return run.latency.size();
  uint64_t failed = 0;
  for (size_t i = 0; i < run.latency.size(); ++i) {
    if (run.latency[i] < 0.0 || run.matches[i] != table.expected[i]) ++failed;
  }
  return failed;
}

bool RunServe(const Options& opt, const Spec& spec, Report* r) {
  Stream stream;
  stream.queries = LoadQueries(opt);
  std::vector<lr::storage::CatalogObject> objects;
  if (!ReadRaw(ObjectsPath(opt), &objects) ||
      !ReadRaw(ArrivalsPath(opt), &stream.due_ms) ||
      stream.due_ms.size() != stream.queries.size()) {
    std::fprintf(stderr, "lrbench: cannot read inputs in %s\n",
                 opt.dir.c_str());
    return false;
  }
  const auto ref = LoadReference(opt);
  const size_t n = stream.size();
  const lr::core::LifeRaftOptions options;  // library defaults
  auto create = [&](double* seconds) {
    std::vector<lr::storage::CatalogObject> copy = objects;
    const int64_t t0 = NowNs();
    auto sys = Must(lr::core::LifeRaft::Create(std::move(copy), options),
                    "create LifeRaft");
    if (seconds != nullptr) *seconds = MsSince(t0) / 1000.0;
    return sys;
  };
  r->Note("direct_io_active", "0");
  r->Note("rate_qps", std::to_string(spec.rate_qps));
  r->Note("arrivals", std::to_string(n));

  if (!opt.trace) {
    std::unique_ptr<lr::core::LifeRaft> sys;
    std::vector<double> setup_s;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      sys.reset();
      double s = 0.0;
      sys = create(&s);
      setup_s.push_back(s);
    }
    r->Note("threads_started", std::to_string(ProcessThreads() - 1));
    stream.table = MakeQueryTable(stream.queries, ref, sys->catalog().bucket_map());
    ServeRun run = Pace(*sys, stream, nullptr);
    r->attempted += n;
    r->failed += CountFailed(run, stream.table);
    if (r->failed > 0) r->correct = false;
    std::vector<double> lat, lat_i, lat_b;
    for (size_t i = 0; i < n; ++i) {
      if (run.latency[i] < 0.0) continue;
      lat.push_back(run.latency[i]);
      (stream.table.interactive[i] ? lat_i : lat_b).push_back(run.latency[i]);
    }
    r->Note("latency_samples", std::to_string(lat.size()) + " (interactive " +
                                   std::to_string(lat_i.size()) + ", batch " +
                                   std::to_string(lat_b.size()) + ")");
    r->Note("gen_lag_p99_ms", std::to_string(Percentile(run.lag_ms, 99)));
    r->Add("setup_s", Median(setup_s), "s");
    r->Add("qps", static_cast<double>(lat.size()) /
                      (run.last_completion_ms / 1000.0),
           "1/s");
    r->Add("latency_p50_ms", Percentile(lat, 50), "ms");
    r->Add("latency_p99_ms", Percentile(lat, 99), "ms");
    r->Add("interactive_p99_ms", Percentile(lat_i, 99), "ms");
    r->Add("batch_p99_ms", Percentile(lat_b, 99), "ms");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // ---- traced: a traced paced run, then untraced and traced replays of
  // its exact call sequence, which must agree batch for batch ----
  Tracer tracer;
  ServeRun paced;
  lr::storage::CacheStats cache;
  lr::join::EvaluatorStats eval;
  double split_ms = 0.0;
  {
    auto sys = create(nullptr);
    r->Note("threads_started", std::to_string(ProcessThreads() - 1));
    stream.table = MakeQueryTable(stream.queries, ref, sys->catalog().bucket_map());
    split_ms = SplitMs(stream.queries, sys->catalog().bucket_map());
    paced = Pace(*sys, stream, &tracer);
    cache = sys->cache_stats();
    eval = sys->evaluator_stats();
  }
  r->attempted += n;
  r->failed += CountFailed(paced, stream.table);
  const auto totals = tracer.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  if (!tracer.WriteTsv(opt.dir + "/spans.tsv")) {
    std::fprintf(stderr, "lrbench: cannot write spans\n");
  }
  r->Note("spans", std::to_string(tracer.size()));

  ServeRun replay_plain;
  ServeRun replay_traced;
  {
    auto sys = create(nullptr);
    replay_plain = Replay(*sys, stream, paced.ops, nullptr);
  }
  {
    Tracer replay_tracer;
    replay_tracer.Arm();
    auto sys = create(nullptr);
    replay_traced = Replay(*sys, stream, paced.ops, &replay_tracer);
  }
  for (const ServeRun* rep : {&replay_plain, &replay_traced}) {
    r->attempted += n;
    uint64_t failed = CountFailed(*rep, stream.table);
    if (rep->matches != paced.matches ||
        rep->batch_buckets != paced.batch_buckets) {
      std::fprintf(stderr, "lrbench: replay differs from the traced run\n");
      failed = n;
    }
    r->failed += failed;
  }
  if (r->failed > 0) r->correct = false;

  double parts = 0;
  for (size_t p : stream.table.parts) parts += static_cast<double>(p);
  const double batches = static_cast<double>(total("core.batch").count);
  const double busy_ms =
      total("core.submit").total_ms + total("core.batch").total_ms;
  // MemStore: no page reads, no I/O queues.
  r->Add("storage.catalog_build_ms", 0.0, "ms");
  r->Add("storage.read.pages", 0.0, "count");
  r->Add("storage.read.mb", 0.0, "MB");
  r->Add("storage.read.service_ms", 0.0, "ms");
  r->Add("storage.read.queue_wait_ms", 0.0, "ms");
  r->Add("storage.read.p99_ms", 0.0, "ms");
  r->Add("storage.queue.max_depth", 0.0, "count");
  r->Add("storage.read.failures", 0.0, "count");
  r->Add("storage.worker_cpu_s", paced.worker_cpu_s, "s");
  r->Add("storage.cache.hit_rate", cache.HitRate(), "ratio");
  r->Add("storage.cache.prefetch_claim_ratio",
         cache.prefetch_issued > 0
             ? static_cast<double>(cache.prefetch_claims) /
                   static_cast<double>(cache.prefetch_issued)
             : 0.0,
         "ratio");
  r->Add("storage.cache.prefetch_wasted_mb",
         static_cast<double>(cache.prefetch_wasted_bytes) / kMiB, "MB");
  r->Add("util.crc32_mb_per_s", Crc32MbPerS(ObjectsPath(opt)), "MB/s");
  r->Add("query.split_ms", split_ms, "ms");
  r->Add("query.peak_pending_objects", 0.0, "count");
  r->Add("sched.pick_ms", 0.0, "ms");
  r->Add("sched.pick.calls", 0.0, "count");
  r->Add("sched.peek_ms", 0.0, "ms");
  r->Add("sched.peek.calls", 0.0, "count");
  r->Add("exec.owner.cpu_s", paced.owner_cpu_s, "s");
  r->Add("exec.owner.io_wait_ms", 0.0, "ms");
  r->Add("exec.owner.other_ms", busy_ms - split_ms, "ms");
  r->Add("exec.batches", static_cast<double>(eval.batches), "count");
  r->Add("exec.parts_per_batch", batches > 0 ? parts / batches : 0.0, "count");
  r->Add("exec.prefetch_hidden_ms", 0.0, "ms");
  r->Add("join.scan_batches", static_cast<double>(eval.scan_batches), "count");
  r->Add("join.indexed_batches", static_cast<double>(eval.indexed_batches),
         "count");
  r->Add("join.index_probes", static_cast<double>(eval.index_probes), "count");
  double matches = 0;
  for (uint64_t m : paced.matches) matches += static_cast<double>(m);
  r->Add("join.matches", matches, "count");
  r->Add("core.submit_ms", total("core.submit").total_ms, "ms");
  r->Add("core.submit_p99_ms", total("core.submit").p99_ms, "ms");
  r->Add("core.batch_ms", total("core.batch").total_ms, "ms");
  r->Add("core.batch_p99_ms", total("core.batch").p99_ms, "ms");
  r->Add("core.batches", batches, "count");
  r->Add("core.queries_per_batch", batches > 0 ? parts / batches : 0.0,
         "count");
  r->Add("core.idle_ms", total("core.idle").total_ms, "ms");
  r->Add("harness.gen_lag_p99_ms", Percentile(paced.lag_ms, 99), "ms");
  r->Add("harness.trace_overhead_pct",
         (replay_traced.busy_ms / replay_plain.busy_ms - 1.0) * 100.0, "%");
  return true;
}

}  // namespace

bool Run(const Options& opt, Report* report) {
  const Spec spec = SpecFor(opt);
  AddMachineContext(opt, report);
  std::ifstream fp(opt.dir + "/fingerprint.json");
  std::string inputs;
  if (!fp || !std::getline(fp, inputs)) {
    std::fprintf(stderr, "lrbench: no inputs in %s (run gen first)\n",
                 opt.dir.c_str());
    return false;
  }
  std::printf("inputs %s\n", inputs.c_str());
  return spec.drain ? RunDrain(opt, spec, report)
                       : RunServe(opt, spec, report);
}

}  // namespace lrbench
