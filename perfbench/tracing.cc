#include "tracing.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "storage/async_io.h"

namespace lrbench {

using liferaft::Result;
using liferaft::storage::AsyncReader;
using liferaft::storage::Bucket;
using liferaft::storage::BucketIndex;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double CpuClockS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuS() { return CpuClockS(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuS() { return CpuClockS(CLOCK_PROCESS_CPUTIME_ID); }

int ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer() : owner_(std::this_thread::get_id()) {}

void Tracer::BeginRoot(const char* name) {
  root_name_ = name;
  root_.store(next_id_.fetch_add(1), std::memory_order_relaxed);
  root_start_ns_ = NowNs();
}

double Tracer::EndRoot() {
  const int64_t end = NowNs();
  Span s;
  s.name = root_name_;
  s.id = root_.load(std::memory_order_relaxed);
  s.start_ns = root_start_ns_;
  s.end_ns = end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  root_.store(0, std::memory_order_relaxed);
  return static_cast<double>(end - root_start_ns_) / 1e6;
}

uint32_t Tracer::ThreadIndex() {
  const std::thread::id self = std::this_thread::get_id();
  if (self == owner_) return 0;
  auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) {
    return static_cast<uint32_t>(it - threads_.begin()) + 1;
  }
  threads_.push_back(self);
  return static_cast<uint32_t>(threads_.size());
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t query) {
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = root_.load(std::memory_order_relaxed);
  s.query = query;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  s.thread = ThreadIndex();
  spans_.push_back(s);
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, std::vector<double>> durations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                  1e6);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (auto& [name, d] : durations) {
    SpanTotals& t = totals[name];
    t.count = d.size();
    for (double x : d) t.total_ms += x;
    std::sort(d.begin(), d.end());
    t.p99_ms = d[std::min(d.size() - 1,
                          static_cast<size_t>(0.99 * static_cast<double>(d.size())))];
  }
  return totals;
}

double Tracer::RootSelfMs(const char* root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double self_ms = 0.0;
  for (const Span& root : spans_) {
    if (root.parent != 0 || std::strcmp(root.name, root_name) != 0) continue;
    // Union of the driving-thread child intervals inside this root.
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const Span& s : spans_) {
      if (s.parent == root.id && s.thread == 0) {
        children.emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (const auto& [lo, hi] : children) {
      if (cur_hi < lo) {
        if (cur_hi >= cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi >= cur_lo) covered += cur_hi - cur_lo;
    self_ms += static_cast<double>(root.end_ns - root.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%u\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<long long>(s.query),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// --------------------------------------------------------- TracedScheduler

std::optional<BucketIndex> TracedScheduler::PickBucket(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached) {
  if (threads_in_run_ < 0) threads_in_run_ = ProcessThreads();
  ScopedSpan span(tracer_, "sched.pick");
  return inner_->PickBucket(manager, now, cached);
}

std::vector<BucketIndex> TracedScheduler::PeekNextBuckets(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached, size_t k) const {
  ScopedSpan span(tracer_, "sched.peek");
  return inner_->PeekNextBuckets(manager, now, cached, k);
}

std::vector<BucketIndex> TracedScheduler::PeekNextBucketsCovering(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached,
    const std::function<uint32_t(BucketIndex)>& volume_of,
    const std::vector<size_t>& want_per_volume) const {
  ScopedSpan span(tracer_, "sched.peek");
  return inner_->PeekNextBucketsCovering(manager, now, cached, volume_of,
                                         want_per_volume);
}

// ------------------------------------------------------------- TracedStore

Result<std::shared_ptr<const Bucket>> TracedStore::ReadBucket(
    BucketIndex index) {
  ScopedSpan span(tracer_, "storage.read_owner");
  return inner_->ReadBucket(index);
}

Result<std::shared_ptr<const Bucket>> TracedStore::ReadBucketForPrefetch(
    BucketIndex index) {
  ScopedSpan span(tracer_, "storage.read");
  return inner_->ReadBucketForPrefetch(index);
}

Result<std::shared_ptr<const Bucket>>
TracedStore::ReadBucketForPrefetchScratch(BucketIndex index,
                                          liferaft::util::Arena* scratch) {
  ScopedSpan span(tracer_, "storage.read");
  return inner_->ReadBucketForPrefetchScratch(index, scratch);
}

std::unique_ptr<AsyncReader> TracedStore::NewAsyncReader(
    const liferaft::storage::StorageTopology* topology) {
  return std::make_unique<TracedReader>(
      liferaft::storage::MakeQueuedAsyncReader(this, topology), tracer_);
}

// ------------------------------------------------------------ TracedReader

size_t TracedReader::Wait() {
  ScopedSpan span(tracer_, "io.wait");
  return inner_->Wait();
}

void TracedReader::Drain() {
  ScopedSpan span(tracer_, "io.wait");
  inner_->Drain();
}

}  // namespace lrbench
