// Double-buffered shard prefetch (DESIGN.md §12).
//
// The pipeline keeps a sliding window of up to `resident_shards` decoded
// shards over one pass's shard order.  A dedicated single-worker ThreadPool
// loads and decodes upcoming shards (ShardReader I/O + rows-only Dataset
// build) while the solver sweeps the current one; with resident_shards = 2
// this is classic double buffering — shard k+1 streams in behind the sweep
// of shard k.
//
// Protocol per pass:
//   begin_pass(order)   — order is this epoch's shard visit sequence;
//                         loads for the first `resident_shards` positions
//                         are enqueued immediately.  An optional layout
//                         says what the pass reads: rows-only (sweeps) or
//                         CSR-only (the streamed gap, which needs neither
//                         the bucketed layout nor the norms).
//   acquire(pos)        — positions must be acquired in order 0, 1, ….
//                         Drops every slot before `pos` (their shards are
//                         done), tops the window up to `resident_shards`
//                         ahead, and blocks until position `pos` is
//                         decoded.  Blocking counts as a prefetch stall:
//                         "store.prefetch_stalls" ticks and the blocked
//                         time runs under a "store/wait" span.  The
//                         returned reference stays valid until the next
//                         acquire/end_pass.
//   end_pass()          — drains the worker and drops the window.
//
// Buffer recycling: a retired slot's shard (CSR arrays, labels, bucketed
// arrays, norms) is kept as a spare and handed to the next load, which
// decodes into that capacity — so a steady-state load touches no fresh
// pages, and no more than `resident_shards` buffer sets ever exist.
// Spares and the window are touched only by the solver thread; a spare
// crosses to the worker inside its slot, ordered by the pool's queue, and
// comes back with the decoded shard under the ready flag's mutex.
//
// A load that throws (corrupt shard, I/O error) is captured on its slot
// and rethrown from the acquire() that needs it — errors surface on the
// solver thread, never terminate the worker.
//
// Synchronous mode (async = false) loads each shard inline in acquire():
// no overlap, every load a stall.  It is the control arm for measuring
// what prefetch buys, and the fallback when a host cannot spare a thread.
//
// Determinism: the pipeline only changes *when* shards are decoded, never
// their content or the order the solver sees them, so a streamed run is
// bit-identical with prefetch on, off, or any window size.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "store/streaming_dataset.hpp"
#include "util/thread_pool.hpp"

namespace tpa::store {

struct PrefetchStats {
  std::uint64_t loads = 0;         // shards loaded + decoded
  std::uint64_t stalls = 0;        // acquires that had to wait
  double load_seconds = 0.0;       // total load+decode time
  double wait_seconds = 0.0;       // total time acquire() sat blocked
  std::uint64_t buffer_sets = 0;   // loads that found no spare to reuse

  /// Fraction of load time hidden behind the sweep: 1 − wait/load,
  /// clamped to [0, 1].  1.0 when nothing was loaded.
  double overlap_fraction() const noexcept;
};

class PrefetchPipeline {
 public:
  /// `source` must outlive the pipeline.  `resident_shards` >= 1 bounds
  /// how many decoded shards exist at once (the memory budget knob);
  /// values above the source's shard count are clamped.
  PrefetchPipeline(const StreamingDataset& source,
                   std::size_t resident_shards, bool async = true);
  ~PrefetchPipeline();
  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// `start_pos` > 0 resumes a pass mid-way (checkpoint restore): loads
  /// are enqueued from that position and the first acquire must be for it.
  void begin_pass(
      std::vector<std::size_t> shard_order, std::size_t start_pos = 0,
      data::DatasetLayout layout = data::DatasetLayout::kRowsOnly);
  const ResidentShard& acquire(std::size_t pos);
  void end_pass();

  std::size_t resident_shards() const noexcept { return resident_; }
  bool async() const noexcept { return async_; }
  const PrefetchStats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    std::size_t pos = 0;
    // Before `ready`: the recycled buffers the load decodes into (owned
    // by the loading thread).  After: the decoded shard.
    ResidentShard shard;
    std::exception_ptr error;
    bool ready = false;
  };

  void schedule(std::size_t pos);
  void top_up(std::size_t pos);
  void retire(Slot& slot);  // keep its buffers as a spare

  const StreamingDataset* source_;
  std::size_t resident_;
  bool async_;
  std::vector<std::size_t> order_;
  data::DatasetLayout layout_ = data::DatasetLayout::kRowsOnly;
  std::deque<std::unique_ptr<Slot>> window_;  // ascending positions
  std::vector<ResidentShard> spares_;         // retired, awaiting reuse
  std::mutex mutex_;
  std::condition_variable ready_cv_;
  PrefetchStats stats_;
  // Declared last: destroyed (joined) before the window it references.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace tpa::store
