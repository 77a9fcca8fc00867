// Sharded LRU bucket cache (paper §4): LifeRaft manages bucket caching
// itself, independently of the database server's buffer pool. The cache's
// residency predicate is the phi(i) term of the workload throughput metric
// — cached buckets cost no T_b — so the greedy scheduler naturally
// gravitates toward cached, contentious buckets.
//
// Sharding: the bucket id hashes (modulo) to one of N shards, each with its
// own mutex, LRU list, and prediction-window slice, so threads touching
// different shards never contend on a single cache-wide lock. Capacity is
// split as evenly as possible across shards; at num_shards == 1 every code
// path, eviction decision, and counter is byte-identical to the pre-shard
// cache. Hit/miss/eviction/prefetch statistics are aggregated atomically
// across shards (std::atomic counters), so stats() reports identical
// numbers at num_shards == 1 as the unsharded cache did.
//
// Prefetch contract: the cache owns no reads of its own beyond Get's
// foreground miss. exec::BatchPipeline places prefetch bets, reads them
// through the store's storage::AsyncReader, and hands each consumed read
// to Claim, which inserts it most-recently-used and records its I/O in
// the store's ledger on the owner thread, so accounting stays
// deterministic. Until that claim an in-flight bet is not resident. The
// pipeline also reports the bets it places and drops
// (RecordPrefetchIssued / RecordPrefetchDropped), so CacheStats stays the
// one report of cache-side prefetch traffic.
//
// Prefetch-aware eviction (two LRU tiers per shard): the prefetch pipeline
// publishes the scheduler's current prediction window via
// SetPredictionWindow — the buckets it expects to serve (and therefore
// fetch or reuse) next. Eviction demotes those buckets last: the victim is
// the least-recently-used entry OUTSIDE the window, and only when every
// entry is inside the window does eviction fall back to the LRU protected
// entry (counted in evictions_protected). The entry the triggering insert
// just touched (the front of the LRU) is never the victim while anything
// else is evictable — protection demotes other buckets, it must not
// bounce the foreground's own bucket straight back out. This closes the
// self-defeating loop where inserting a prefetched bucket evicts the very
// bucket the next prediction wants — generic LRU knows nothing about the
// predictor. With an empty window (the default, and whenever prefetching
// is off) eviction is byte-identical to plain LRU.
//
// Threading: every method is safe to call from any thread — per-bucket
// operations serialize on the bucket's shard mutex only, and the store
// contract (bucket_store.h) requires ReadBucket to tolerate the resulting
// cross-shard concurrency. The drivers funnel all accounting through one
// owner thread (see exec::BatchPipeline); the shard locks exist for the
// concurrent get/claim stress paths exercised in tests/test_storage.cc.
// Known limitation: a Get miss reads the store while HOLDING the shard
// lock, stalling that shard for the duration — fine for MemStore's
// pointer handouts and for the pipeline, whose physical reads run on the
// AsyncReader's workers outside any cache lock.

#ifndef LIFERAFT_STORAGE_BUCKET_CACHE_H_
#define LIFERAFT_STORAGE_BUCKET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/bucket.h"
#include "storage/bucket_store.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::storage {

/// Cache hit/miss counters. A claimed prefetch counts as a miss (the
/// bucket did come from the store) plus a prefetch_claims tick, so the hit
/// rate keeps its meaning and the claims count says how many misses the
/// pipeline (partially) hid.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Prefetch bets the pipeline placed (RecordPrefetchIssued).
  uint64_t prefetch_issued = 0;
  /// Bets consumed by a Claim of their bucket.
  uint64_t prefetch_claims = 0;
  /// Bets dropped unused (RecordPrefetchDropped), plus claims of a read
  /// the store could not serve off the owner thread, which degrade to a
  /// plain miss.
  uint64_t prefetch_cancels = 0;
  /// Bytes fetched by bets that were then dropped without a claim — the
  /// direct cost of mispredicted bets. The adaptive prefetch controller's
  /// waste signal and the bench report both read this.
  uint64_t prefetch_wasted_bytes = 0;
  /// Evictions that had to take a bucket inside the current prediction
  /// window because every other entry was protected (cache pressure
  /// exceeding what prefetch-aware demotion can absorb).
  uint64_t evictions_protected = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity sharded LRU cache of immutable buckets, layered over a
/// BucketStore.
class BucketCache {
 public:
  /// @param store      backing store (not owned; must outlive the cache)
  /// @param capacity   maximum number of resident buckets (paper: 20)
  /// @param num_shards lock/LRU shards; clamped to [1, capacity] so every
  ///                   shard holds at least one bucket. 1 reproduces the
  ///                   unsharded cache exactly.
  /// @param topology   optional volume map (not owned; must outlive the
  ///                   cache). When set, buckets shard by their volume
  ///                   (VolumeOf(b) % num_shards) instead of by raw bucket
  ///                   id — under range placement curve-adjacent buckets
  ///                   then share a shard (and its LRU domain), aligning
  ///                   the cache's lock/eviction domains with the arms
  ///                   that feed them; num_shards is additionally clamped
  ///                   to the volume count, since shards beyond it could
  ///                   never receive an entry. Irrelevant at
  ///                   num_shards == 1.
  /// @param capacity_bytes optional byte budget, split across shards like
  ///                   the count capacity. 0 (default) disables byte
  ///                   accounting entirely — byte-identical to the
  ///                   pre-byte-mode cache. When set, each resident bucket
  ///                   is charged its real encoded page size when it has
  ///                   one (columnar v2 buckets) and the kBytesPerObject
  ///                   estimate otherwise, and eviction also runs while a
  ///                   shard is over its byte slice — so at a fixed MB
  ///                   budget, smaller encoded pages mean more resident
  ///                   buckets. The count bound still applies; callers
  ///                   wanting a pure byte budget pass capacity =
  ///                   num_buckets.
  BucketCache(BucketStore* store, size_t capacity, size_t num_shards = 1,
              const StorageTopology* topology = nullptr,
              uint64_t capacity_bytes = 0);

  /// True if the bucket is resident (phi(i) == 0). Does not affect LRU
  /// order — the metric may interrogate residency without touching
  /// recency.
  bool Contains(BucketIndex index) const;

  /// Returns the bucket, reading it from the store on a miss; promotes to
  /// most-recently-used either way.
  Result<std::shared_ptr<const Bucket>> Get(BucketIndex index);

  /// The claim entry: installs `fetched`, a read of `index` the caller
  /// made through the store's AsyncReader, as most-recently-used (or
  /// promotes it if already resident); eviction applies immediately and
  /// the just-inserted entry is never its own eviction victim. Counts
  /// a miss (the bucket did come from the store) plus, when `bet` is set
  /// (a consumed prefetch bet rather than a foreground read), a
  /// prefetch_claims tick, and records the read in the store's ledger via
  /// RecordPrefetchedRead. A kUnimplemented read (a store without
  /// concurrent reads) degrades to a plain Get miss, counted as a
  /// prefetch cancel; any other read failure is returned with nothing
  /// counted.
  Result<std::shared_ptr<const Bucket>> Claim(
      BucketIndex index, Result<std::shared_ptr<const Bucket>> fetched,
      bool bet);

  /// Counts one prefetch bet placed by the pipeline.
  void RecordPrefetchIssued() {
    stats_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  }

  /// Counts one bet dropped without a claim that had fetched (or is
  /// charged as having fetched) `wasted_bytes`.
  void RecordPrefetchDropped(uint64_t wasted_bytes) {
    stats_.prefetch_cancels.fetch_add(1, std::memory_order_relaxed);
    stats_.prefetch_wasted_bytes.fetch_add(wasted_bytes,
                                           std::memory_order_relaxed);
  }

  /// Publishes the prefetch predictor's current window: buckets predicted
  /// to be served next, demoted last by eviction (see file comment).
  /// Replaces the previous window; an empty span restores plain LRU.
  /// Typically called once per pipeline step with PeekNextBuckets' output.
  void SetPredictionWindow(std::span<const BucketIndex> window);

  /// Drops every resident bucket and the prediction window (used between
  /// experiment phases).
  void Clear();

  /// The backing store (for metadata queries; reads should go through
  /// Get so residency stays coherent).
  const BucketStore& store() const { return *store_; }

  /// The backing store, mutable: the per-query NoShare path reads buckets
  /// directly (no shared cache, by definition) and needs the
  /// stats-recording ReadBucket.
  BucketStore* mutable_store() { return store_; }

  size_t capacity() const { return capacity_; }
  /// The byte budget (0 = byte accounting off).
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Resident buckets across all shards.
  size_t size() const;
  /// Charged bytes resident across all shards (0 when byte accounting is
  /// off — charges are only tracked in byte mode).
  uint64_t resident_bytes() const;
  /// Atomic cross-shard snapshot of the aggregated counters.
  CacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    BucketIndex index;
    std::shared_ptr<const Bucket> bucket;
    /// Bytes charged against the shard's byte slice (0 in count-only
    /// mode).
    uint64_t bytes = 0;
  };

  /// One lock domain: an independent LRU over its slice of the capacity.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    /// This shard's slice of the byte budget (0 = byte accounting off).
    uint64_t capacity_bytes = 0;
    /// Charged bytes of the resident entries (maintained only in byte
    /// mode).
    uint64_t bytes_used = 0;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<BucketIndex, std::list<Entry>::iterator> map;
    /// This shard's slice of the prediction window (protected tier).
    std::unordered_set<BucketIndex> window;
  };

  /// Monotonically aggregated counters, incremented under shard locks but
  /// readable lock-free from any thread.
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> prefetch_issued{0};
    std::atomic<uint64_t> prefetch_claims{0};
    std::atomic<uint64_t> prefetch_cancels{0};
    std::atomic<uint64_t> prefetch_wasted_bytes{0};
    std::atomic<uint64_t> evictions_protected{0};
  };

  /// Shard key: the owning volume when a topology is attached (aligning
  /// lock/LRU domains with arms), the raw bucket id otherwise.
  size_t ShardKey(BucketIndex index) const {
    return topology_ != nullptr
               ? static_cast<size_t>(topology_->VolumeOf(index))
               : static_cast<size_t>(index);
  }
  Shard& ShardFor(BucketIndex index) {
    return *shards_[ShardKey(index) % shards_.size()];
  }
  const Shard& ShardFor(BucketIndex index) const {
    return *shards_[ShardKey(index) % shards_.size()];
  }

  // Shard-local helpers; the shard's mutex must be held.
  static void Touch(Shard& shard, std::list<Entry>::iterator it);
  /// Promotes `index` if resident, else inserts `bucket`
  /// most-recently-used and evicts down to the shard's capacity. Returns
  /// the resident bucket.
  std::shared_ptr<const Bucket> InsertMru(Shard& shard, BucketIndex index,
                                          std::shared_ptr<const Bucket> bucket);
  void EvictOverCapacity(Shard& shard);

  /// Bytes a resident bucket is charged in byte mode: the real encoded
  /// page size when the bucket carries one, the modeled estimate
  /// otherwise.
  static uint64_t ChargedBytes(const Bucket& b) {
    const uint64_t encoded = b.encoded_bytes();
    return encoded > 0 ? encoded : b.EstimatedBytes();
  }

  BucketStore* store_;
  size_t capacity_;
  uint64_t capacity_bytes_ = 0;
  const StorageTopology* topology_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  AtomicStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_CACHE_H_
