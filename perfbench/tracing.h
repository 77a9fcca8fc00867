// In-memory span tracing for the traced benchmark run, plus decorators that
// record spans around the calls the engine makes into the scheduler, the
// bucket store and the asynchronous reader. The decorators forward every
// call unchanged; a span is recorded only while the tracer is armed.

#ifndef LRBENCH_TRACING_H_
#define LRBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sched/scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_store.h"

namespace lrbench {

/// Nanoseconds on std::chrono::steady_clock.
int64_t NowNs();
/// CPU time of the calling thread / of the whole process, in seconds.
double ThreadCpuS();
double ProcessCpuS();
/// Threads the process has right now (from /proc/self/status).
int ProcessThreads();

/// One timed interval. `parent` is 0 for a root span; `query` is -1 when
/// the span serves no single query; `thread` is 0 on the driving thread.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t query = -1;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name aggregate over the spans of one traced interval.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double p99_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }

  /// Opens a root span on the driving thread; every span recorded until
  /// EndRoot names it as parent.
  void BeginRoot(const char* name);
  /// Closes the root span; returns its duration in ms.
  double EndRoot();
  uint64_t root() const { return root_.load(std::memory_order_relaxed); }

  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t query = -1);

  /// Count, total and p99 duration per span name, over all spans kept.
  std::map<std::string, SpanTotals> Totals() const;
  /// Sum over roots named `root_name` of the root's duration minus the
  /// driving-thread child spans it covers (its self time), in ms.
  double RootSelfMs(const char* root_name) const;

  /// Writes every span as one tab-separated line:
  /// id parent thread name query start_ns end_ns.
  bool WriteTsv(const std::string& path) const;
  size_t size() const;

 private:
  uint32_t ThreadIndex();

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> root_{0};
  const char* root_name_ = "";
  int64_t root_start_ns_ = 0;
  std::thread::id owner_;

  mutable std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// Records a span over its own lifetime when `tracer` is non-null and
/// armed.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query = -1)
      : tracer_(tracer != nullptr && tracer->armed() ? tracer : nullptr),
        name_(name),
        query_(query),
        start_ns_(tracer_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Record(name_, start_ns_, NowNs(), query_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t query_;
  int64_t start_ns_;
};

/// Forwards the scheduler interface, timing PickBucket ("sched.pick") and
/// both peek methods ("sched.peek"). Also notes the process thread count
/// at the first pick after ResetThreadSample, so the harness can report
/// the threads a run started.
class TracedScheduler : public liferaft::sched::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<liferaft::sched::Scheduler> inner,
                  Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void AttachTopology(
      const liferaft::storage::StorageTopology* topology) override {
    inner_->AttachTopology(topology);
  }
  std::optional<liferaft::storage::BucketIndex> PickBucket(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached) override;
  std::vector<liferaft::storage::BucketIndex> PeekNextBuckets(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached, size_t k) const override;
  std::vector<liferaft::storage::BucketIndex> PeekNextBucketsCovering(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached,
      const std::function<uint32_t(liferaft::storage::BucketIndex)>& volume_of,
      const std::vector<size_t>& want_per_volume) const override;

  void ResetThreadSample() { threads_in_run_ = -1; }
  int threads_in_run() const { return threads_in_run_; }

 private:
  std::unique_ptr<liferaft::sched::Scheduler> inner_;
  Tracer* tracer_;
  int threads_in_run_ = -1;
};

/// Forwards the BucketStore interface to an owned store. Worker-side page
/// reads (ReadBucketForPrefetch[Scratch]) are timed as "storage.read",
/// owner-side ReadBucket as "storage.read_owner". NewAsyncReader returns
/// a TracedReader over the library's queued reader bound to this
/// decorator, so the I/O workers read through it.
class TracedStore : public liferaft::storage::BucketStore {
 public:
  TracedStore(std::unique_ptr<liferaft::storage::BucketStore> inner,
              Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  size_t num_buckets() const override { return inner_->num_buckets(); }
  const liferaft::storage::BucketMap& bucket_map() const override {
    return inner_->bucket_map();
  }
  size_t BucketObjectCount(liferaft::storage::BucketIndex index)
      const override {
    return inner_->BucketObjectCount(index);
  }
  uint64_t EncodedBucketBytes(liferaft::storage::BucketIndex index)
      const override {
    return inner_->EncodedBucketBytes(index);
  }
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucket(liferaft::storage::BucketIndex index) override;
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucketForPrefetch(liferaft::storage::BucketIndex index) override;
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucketForPrefetchScratch(liferaft::storage::BucketIndex index,
                               liferaft::util::Arena* scratch) override;
  std::unique_ptr<liferaft::storage::AsyncReader> NewAsyncReader(
      const liferaft::storage::StorageTopology* topology) override;

 private:
  std::unique_ptr<liferaft::storage::BucketStore> inner_;
  Tracer* tracer_;
};

/// Forwards the AsyncReader interface, timing the driving thread's
/// blocking calls (Wait, Drain) as "io.wait". Completion callbacks run
/// inside Wait, so the span includes their (small) handling cost.
class TracedReader : public liferaft::storage::AsyncReader {
 public:
  TracedReader(std::unique_ptr<liferaft::storage::AsyncReader> inner,
               Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  uint64_t SubmitRead(liferaft::storage::BucketIndex index,
                      liferaft::storage::AsyncReadCallback done) override {
    return inner_->SubmitRead(index, std::move(done));
  }
  size_t Poll() override { return inner_->Poll(); }
  size_t Wait() override;
  void Drain() override;
  size_t in_flight() const override { return inner_->in_flight(); }
  std::vector<liferaft::storage::AsyncVolumeStats> VolumeStats()
      const override {
    return inner_->VolumeStats();
  }

 private:
  std::unique_ptr<liferaft::storage::AsyncReader> inner_;
  Tracer* tracer_;
};

}  // namespace lrbench

#endif  // LRBENCH_TRACING_H_
