// The unified batch-execution pipeline: the paper's core scheduling loop —
// pick a bucket, claim its prefetched read, evaluate the bucket's whole
// workload queue, keep the next predicted buckets coming — written once
// and shared by both drivers (core::LifeRaft::ProcessNextBatch and
// sim::SimEngine's shared mode) and by both clocks.
//
// One loop, two fetch backends. Every read the pipeline makes goes
// through the storage::AsyncReader it opens on the store
// (BucketStore::NewAsyncReader): per-volume submission queues whose
// workers read while the owner thread joins. What differs between the
// clocks is only how a fetch is charged, and that is confined to the
// fetch seam (the private Bet*/Charge* helpers):
//  * modeled (PipelineConfig::real_io off, the deterministic oracle):
//    bets are priced with DiskModel arithmetic on per-arm virtual clocks,
//    described below. The read itself runs on a worker, but no wall-clock
//    fact — completion order, whether a read has finished yet — reaches
//    a decision or a counter: the claim waits for its read and charges
//    the modeled residual; a dropped bet is charged its modeled bytes
//    from store metadata. Results are thread- and machine-independent.
//  * real (real_io on): a claim charges the MEASURED wall time the step
//    blocked on the queue, and a foreground miss is itself a queue read
//    (serializing physically behind the bets on its volume) installed via
//    BucketCache::Claim before the evaluator scans it. The physical
//    queues are the arm serialization, so there are no modeled arm clocks.
//
// Depth-K prefetch: with prefetching enabled the pipeline keeps up to
// `prefetch_depth` predicted buckets in flight per disk arm
// (Scheduler::PeekNextBuckets supplies the predicted service order).
// Physical reads start immediately, overlapping the current batch's join
// compute; the *modeled* fetches serialize per arm — a prefetch's virtual
// completion time queues behind the current batch's disk phase (when they
// share the arm) and behind every earlier prefetch on its own arm, so no
// arm's clock ever overlaps two of its fetches. A batch that claims its
// predicted bucket pays only the un-hidden residual max(0, fetch_done -
// now), capped at the bucket's full T_b — a bet queued so deep behind its
// arm that waiting would exceed a fresh foreground read is charged as
// exactly that read (and hides nothing), though the physical bytes are
// still reused. The full fetch minus the charged residual is credited to
// prefetch_hidden_ms. At prefetch_depth == 1 with cancel-on-mispredict off
// and a single volume this reproduces the original single-bet pipeline
// tick-for-tick.
//
// Multi-volume topology (storage::StorageTopology): each volume is an
// independent disk arm with its own in-flight bet queue, its own modeled
// busy time, and — in adaptive mode — its own PrefetchController depth.
// Scheduler::PeekNextBucketsCovering peeks the prediction deep enough to
// surface candidates for every arm, so arms the front of the prediction
// does not touch still get their fetches started; fetches on different
// arms overlap both each other and the foreground batch's disk phase on
// the virtual clocks, which is where the multi-spindle makespan win comes
// from. A batch's foreground I/O contends only with its own bucket's arm:
// bets on other arms neither slip nor delay it. A topology with a
// dedicated spill arm (StorageTopologyConfig::spill_arm) contributes one
// extra trailing arm that carries no bets and absorbs spill-restore busy
// time, so restores stop contending with the restored bucket's own arm.
// With a null topology (or num_volumes == 1) every bucket maps to arm 0
// and the accounting reduces to the single-arm model byte for byte.
//
// Mispredictions: by default an unclaimed prefetch is held until its
// bucket is eventually scheduled, its modeled completion slipping
// whenever the foreground batch needs its disk arm. With
// `cancel_on_mispredict` the pipeline instead drops queued prefetches that
// have fallen out of the scheduler's current prediction window (the arm
// time already modeled for them is not refunded — the bet was placed and
// lost).
//
// Adaptive depth (per arm): with `adaptive_prefetch` the fixed
// `prefetch_depth` becomes only the starting point — each arm's
// PrefetchController tracks that arm's stale-claim rate, hidden-ms per
// claim, and wasted prefetch bytes and walks the arm's depth between 0
// and `controller.max_depth`: shrink on mispredict bursts, grow while
// deeper bets keep hiding latency and dropped bets are not burning
// bandwidth. Adaptive mode implies window-based cancelation (a shrunken
// window drops the now-out-of-scope bets, which is both the drain
// mechanism and the controller's mispredict signal). In modeled mode the
// controllers see only virtual quantities and step counts, so they stay
// deterministic.
//
// Prefetch-aware eviction: each time the pipeline peeks the prediction
// window it publishes it to the cache (BucketCache::SetPredictionWindow),
// so eviction demotes predicted buckets last and the prefetcher stops
// evicting what it is about to fetch or claim. Opt out with
// `prefetch_aware_eviction = false` for A/B comparison.

#ifndef LIFERAFT_EXEC_BATCH_PIPELINE_H_
#define LIFERAFT_EXEC_BATCH_PIPELINE_H_

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "exec/prefetch_controller.h"
#include "join/evaluator.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_cache.h"
#include "storage/topology.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::exec {

/// Knobs of the unified loop.
struct PipelineConfig {
  /// Cross-batch prefetch pipelining (see file comment). Changes the
  /// schedule (prefetched buckets count as resident for phi) but stays
  /// deterministic and thread-count independent.
  bool enable_prefetch = false;
  /// Predicted picks kept in flight PER ARM (>= 1). Depth 1 on a single
  /// volume is the PR 2 pipeline.
  size_t prefetch_depth = 1;
  /// Drop queued prefetches that leave the scheduler's prediction window
  /// instead of holding them until claimed.
  bool cancel_on_mispredict = false;
  /// Feedback-driven per-arm depth scaling between 0 and
  /// controller.max_depth (see file comment); prefetch_depth seeds every
  /// arm's starting depth. Implies window-based cancelation of stale bets.
  bool adaptive_prefetch = false;
  /// Tuning of the adaptive controllers (used when adaptive_prefetch).
  PrefetchControllerConfig controller;
  /// Publish the prediction window to the cache so eviction demotes
  /// predicted buckets last (BucketCache::SetPredictionWindow).
  bool prefetch_aware_eviction = true;
  /// Materialize match tuples (disable for scheduling-scale experiments).
  bool collect_matches = true;
  /// Price prefetch bets and foreground reads by the store's real encoded
  /// page bytes instead of the kBytesPerObject estimate (see
  /// JoinEvaluator::set_charge_encoded_bytes; keep the two in sync so bet
  /// fetch times match foreground fetch times). Off by default — v1/v2
  /// runs stay byte-identical.
  bool charge_encoded_bytes = false;
  /// The measured fetch backend (see file comment): the drivers set it
  /// from their I/O mode. Requires a store with concurrent reads.
  bool real_io = false;
};

/// Everything one pipeline step produced; the driver advances its clock by
/// TotalAdvanceMs() and owns completion/match bookkeeping.
struct StepOutcome {
  storage::BucketIndex bucket = 0;
  /// The disk arm the batch's bucket lives on (0 without a topology).
  storage::VolumeIndex volume = 0;
  join::JoinStrategy strategy = join::JoinStrategy::kScan;
  /// True if the scan path found the bucket resident (phi(i) == 0).
  bool cache_hit = false;
  /// Evaluator cost of the batch (io_ms + cpu_ms).
  TimeMs cost_ms = 0.0;
  TimeMs io_ms = 0.0;
  TimeMs cpu_ms = 0.0;
  /// Time the batch waited for its bucket's fetch before evaluating: the
  /// un-hidden tail of a claimed prefetch (modeled), or the measured wait
  /// on the queue (real).
  TimeMs fetch_residual_ms = 0.0;
  /// Sequential I/O for workload segments restored from the spill file.
  TimeMs restore_ms = 0.0;
  join::JoinCounters counters;
  /// Queries whose last outstanding sub-query was in this batch.
  std::vector<query::QueryId> completed;
  /// Matches produced by this batch (all batch queries interleaved).
  std::vector<query::Match> matches;

  /// Total virtual time this step consumes.
  TimeMs TotalAdvanceMs() const {
    return fetch_residual_ms + cost_ms + restore_ms;
  }
};

/// One archive's pick→claim→prefetch→evaluate→account loop. The pipeline
/// borrows every component except its AsyncReader and keeps only the
/// per-arm bet bookkeeping as state; drivers own the completion clock and
/// call Step with their current time.
class BatchPipeline {
 public:
  /// @param scheduler bucket scheduling policy (not owned)
  /// @param manager   workload queues (not owned)
  /// @param evaluator join evaluator layered over the bucket cache (not
  ///                  owned; supplies the cache, disk model, and hybrid
  ///                  config)
  /// @param topology  volume map with per-volume disk models (not owned;
  ///                  may be null = single volume using the evaluator's
  ///                  model)
  /// The store behind the evaluator's cache, and the topology, must
  /// outlive the pipeline: its reader's workers read through them.
  BatchPipeline(sched::Scheduler* scheduler, query::WorkloadManager* manager,
                join::JoinEvaluator* evaluator, PipelineConfig config,
                const storage::StorageTopology* topology = nullptr);

  /// Runs one scheduling step at time `now`. Returns nullopt when no
  /// queue has pending work (outstanding prefetch bets stay pending —
  /// work may still arrive for them).
  Result<std::optional<StepOutcome>> Step(TimeMs now);

  /// Drops every outstanding prefetch bet on every arm and waits out
  /// their reads (end of run / drain).
  void CancelOutstandingPrefetches();

  /// Fetch time hidden behind compute by claimed prefetches, summed over
  /// all arms (per-arm split in volume_stats()).
  TimeMs prefetch_hidden_ms() const { return prefetch_hidden_ms_; }

  /// Arm `volume`'s adaptive controller, or null when adaptive_prefetch
  /// is off. The zero-arg form is the single-volume accessor (arm 0).
  const PrefetchController* controller(size_t volume) const {
    return arms_[volume].controller.get();
  }
  const PrefetchController* controller() const { return controller(0); }

  /// The depth the next Step will prefetch arm `volume` to (that arm's
  /// controller depth in adaptive mode, the fixed config depth
  /// otherwise), limited by the external depth cap. The zero-arg form
  /// reads arm 0.
  size_t current_prefetch_depth(size_t volume) const {
    const size_t raw = arms_[volume].controller != nullptr
                           ? arms_[volume].controller->depth()
                           : config_.prefetch_depth;
    return std::min(raw, depth_cap_);
  }
  size_t current_prefetch_depth() const { return current_prefetch_depth(0); }

  /// Caps every arm's next-step prefetch depth — adaptive or fixed — at
  /// `cap`. The default (SIZE_MAX) never binds; the serving engine drives
  /// this from the active QoS class's QosPrefetchConfig between steps.
  /// The cap limits how many NEW bets a step places; bets already in
  /// flight are untouched (the window-based stale drop drains them).
  void set_depth_cap(size_t cap) { depth_cap_ = cap; }
  size_t depth_cap() const { return depth_cap_; }

  /// Number of disk arms including the dedicated spill arm, if any.
  size_t num_volumes() const { return arms_.size(); }

  /// Arms that own buckets — and so can carry prefetch bets and a depth
  /// controller. One less than num_volumes() under a spill-arm topology.
  size_t bucket_volumes() const { return bucket_volumes_; }

  /// Per-arm I/O telemetry accumulated so far (index = volume).
  std::vector<storage::VolumeIoStats> volume_stats() const;

  /// The reader every bet and real-mode foreground read goes through, or
  /// null when the pipeline never reads (modeled mode with prefetching
  /// off, or a store without concurrent reads). Its VolumeStats() are the
  /// measured queue telemetry.
  const storage::AsyncReader* reader() const { return reader_.get(); }

  /// Residency probe for the scheduler's phi term at time `now`: resident
  /// in cache, or bet on by a prefetch that has landed — modeled: its
  /// fetch's virtual completion is <= now; real: its read has completed
  /// OK. This steers the metric toward the bucket we bet on, making the
  /// prediction self-fulfilling.
  sched::CacheProbe MakeCacheProbe(TimeMs now) const;

  /// Per-call match materialization (core::LifeRaft's ProcessNextBatch
  /// exposes this per batch).
  void set_collect_matches(bool collect) { config_.collect_matches = collect; }

  /// Outstanding bets across all arms.
  size_t pending_prefetches() const;

 private:
  /// One outstanding prefetch bet.
  struct PendingPrefetch {
    storage::BucketIndex bucket;
    /// The reader ticket of the bet's read (0 = no read was submitted:
    /// the store serves no concurrent reads).
    uint64_t ticket;
    /// Modeled backend: virtual time at which the fetch completes on its
    /// arm (queued behind the arm's foreground I/O and earlier prefetches)
    /// and the full fetch cost (T_b of the bucket), for hidden-time stats.
    /// Zero under the real backend.
    TimeMs done_ms = 0.0;
    TimeMs fetch_ms = 0.0;
  };

  /// One disk arm: its outstanding bets in predicted service order (= that
  /// arm's queue order), its adaptive depth controller, and its telemetry.
  struct Arm {
    std::deque<PendingPrefetch> bets;
    /// Non-null iff config_.adaptive_prefetch.
    std::unique_ptr<PrefetchController> controller;
    storage::VolumeIoStats stats;
  };

  /// A fetch charged to the step: the time waited before evaluating and
  /// the fetch time that was hidden behind earlier compute.
  struct FetchCharge {
    TimeMs residual_ms = 0.0;
    TimeMs hidden_ms = 0.0;
  };

  // ---- reads (shared by both backends) ----
  /// Submits a read of `b` to the reader; returns its ticket (0 without a
  /// reader).
  uint64_t SubmitRead(storage::BucketIndex b);
  /// Blocks until the read `ticket` completes (delivering other reads'
  /// completions along the way), forgets it, and returns its completion;
  /// `waited_ms` receives the wall time spent blocked.
  storage::AsyncReadCompletion AwaitRead(uint64_t ticket, TimeMs* waited_ms);

  // ---- the fetch seam: the only places the two backends differ ----
  /// True if bet `p` counts as resident for the phi term at `now`.
  bool BetLanded(const PendingPrefetch& p, TimeMs now) const;
  /// Charges the claim of bet `p`, whose read completed as `read` after
  /// the step blocked `waited_ms` on it.
  FetchCharge ChargeClaim(const PendingPrefetch& p, TimeMs now,
                          const storage::AsyncReadCompletion& read,
                          TimeMs waited_ms, Arm& arm) const;
  /// Drops bet `p` unclaimed and returns the bytes it is charged as
  /// waste: modeled — the bucket's modeled bytes from store metadata
  /// whether or not the read has finished; real — the bytes its read had
  /// actually fetched by now.
  uint64_t DropBet(const PendingPrefetch& p);
  /// Advances the modeled arm clocks after a batch: slips the batch arm's
  /// queued bets by its disk phase, prices and queues `issued`, and
  /// charges the foreground and spill-restore busy time.
  void ChargeModeledArms(
      TimeMs now, const StepOutcome& outcome,
      const join::BatchResult& result, uint64_t restored_bytes,
      const std::vector<std::vector<PendingPrefetch>>& issued);

  storage::VolumeIndex VolumeOf(storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->VolumeOf(b) : 0;
  }
  /// Disk model for bucket `b`'s sequential fetches: its volume's model
  /// under a topology, the evaluator's global model otherwise.
  const storage::DiskModel& ModelFor(storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->ModelFor(b)
                                : evaluator_->disk_model();
  }
  /// True if the evaluator takes the scan path for a batch of
  /// `queue_objects` on `bucket` given its residency — with `cached` set,
  /// whether claiming a prefetch will actually be consumed (under
  /// prefer_scan_when_cached=false a small batch probes the index and
  /// would never touch the fetched bucket); with it clear, whether an
  /// uncached batch needs a foreground read at all.
  bool Scans(storage::BucketIndex bucket, uint64_t queue_objects,
             bool cached) const;

  sched::Scheduler* scheduler_;
  query::WorkloadManager* manager_;
  join::JoinEvaluator* evaluator_;
  storage::BucketCache* cache_;
  const storage::StorageTopology* topology_;
  PipelineConfig config_;

  /// One entry per bucket volume (exactly one without a topology), plus a
  /// trailing bet-less entry for the spill arm when the topology
  /// dedicates one.
  std::vector<Arm> arms_;
  /// Arms [0, bucket_volumes_) own buckets; a spill arm, if present, is
  /// arms_[bucket_volumes_].
  size_t bucket_volumes_ = 1;
  /// External per-step depth limit (see set_depth_cap).
  size_t depth_cap_ = std::numeric_limits<size_t>::max();
  TimeMs prefetch_hidden_ms_ = 0.0;
  /// Last window published to the cache (skip republishing unchanged
  /// windows — the cache locks every shard to swap them).
  std::vector<storage::BucketIndex> last_window_;

  /// Outstanding reads by ticket; a value is filled in by the read's
  /// completion callback, which the reader invokes on THIS thread inside
  /// Poll()/Wait() — never on a worker, so no locking.
  std::unordered_map<uint64_t, std::optional<storage::AsyncReadCompletion>>
      reads_;
  WallClock wall_;
  /// Declared last so it is destroyed first: joining its workers drops
  /// undelivered callbacks before the state they reference goes away.
  std::unique_ptr<storage::AsyncReader> reader_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_BATCH_PIPELINE_H_
