#include "store/prefetch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::store {
namespace {

// Decodes shard `shard` into `out`, recycling the arrays `out` holds; a
// failure is returned, never thrown, so it can wait on its slot.
std::exception_ptr decode_into(const StreamingDataset& source,
                               std::size_t shard, data::DatasetLayout layout,
                               ResidentShard& out) {
  try {
    out = decode_shard(source, shard, layout, std::move(out));
    return nullptr;
  } catch (...) {
    return std::current_exception();
  }
}

}  // namespace

double PrefetchStats::overlap_fraction() const noexcept {
  if (load_seconds <= 0.0) return 1.0;
  return std::clamp(1.0 - wait_seconds / load_seconds, 0.0, 1.0);
}

PrefetchPipeline::PrefetchPipeline(const StreamingDataset& source,
                                   std::size_t resident_shards, bool async)
    : source_(&source),
      resident_(std::max<std::size_t>(1, std::min(resident_shards,
                                                  source.num_shards()))),
      async_(async) {
  if (source.num_shards() == 0) resident_ = 1;
  // One dedicated worker: loads are issued in pass order and execute FIFO,
  // so the window fills front-first — exactly the order acquire() consumes.
  if (async_) pool_ = std::make_unique<util::ThreadPool>(1);
}

PrefetchPipeline::~PrefetchPipeline() {
  if (pool_) pool_->wait_idle();
}

void PrefetchPipeline::schedule(std::size_t pos) {
  auto slot = std::make_unique<Slot>();
  slot->pos = pos;
  if (spares_.empty()) {
    ++stats_.buffer_sets;
  } else {
    slot->shard = std::move(spares_.back());
    spares_.pop_back();
  }
  Slot* raw = slot.get();
  window_.push_back(std::move(slot));
  if (!async_) return;  // sync mode decodes lazily in acquire()
  const std::size_t shard = order_[pos];
  const data::DatasetLayout layout = layout_;
  pool_->submit([this, raw, shard, layout] {
    const util::WallTimer timer;
    const std::exception_ptr error =
        decode_into(*source_, shard, layout, raw->shard);
    const double seconds = timer.seconds();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      raw->error = error;
      raw->ready = true;
      ++stats_.loads;
      stats_.load_seconds += seconds;
    }
    ready_cv_.notify_all();
  });
}

void PrefetchPipeline::retire(Slot& slot) {
  if (spares_.size() < resident_) spares_.push_back(std::move(slot.shard));
}

void PrefetchPipeline::top_up(std::size_t pos) {
  const std::size_t limit = std::min(pos + resident_, order_.size());
  std::size_t next = window_.empty() ? pos : window_.back()->pos + 1;
  for (; next < limit; ++next) schedule(next);
}

void PrefetchPipeline::begin_pass(std::vector<std::size_t> shard_order,
                                  std::size_t start_pos,
                                  data::DatasetLayout layout) {
  end_pass();
  order_ = std::move(shard_order);
  layout_ = layout;
  if (start_pos < order_.size()) top_up(start_pos);
}

void PrefetchPipeline::end_pass() {
  if (pool_) pool_->wait_idle();  // no worker may touch a slot we drop
  for (const auto& slot : window_) retire(*slot);
  window_.clear();
  order_.clear();
}

const ResidentShard& PrefetchPipeline::acquire(std::size_t pos) {
  if (pos >= order_.size()) {
    throw std::out_of_range("PrefetchPipeline: position past the pass");
  }
  // Retire every finished slot before `pos`.  Dropped slots are always
  // ready (positions are acquired in order and the worker runs FIFO), so
  // the worker can never still reference one.
  while (!window_.empty() && window_.front()->pos < pos) {
    retire(*window_.front());
    window_.pop_front();
  }
  top_up(pos);
  if (window_.empty() || window_.front()->pos != pos) {
    throw std::logic_error(
        "PrefetchPipeline: acquire() positions must be visited in order");
  }
  Slot& slot = *window_.front();

  if (!async_) {
    // Control arm: load inline.  The sweep waits for the whole load, so
    // the time counts as both load and wait — overlap fraction 0.
    const util::WallTimer timer;
    obs::TraceSpan wait("store/wait");
    slot.error = decode_into(*source_, order_[pos], layout_, slot.shard);
    slot.ready = true;
    const double seconds = timer.seconds();
    ++stats_.loads;
    ++stats_.stalls;
    stats_.load_seconds += seconds;
    stats_.wait_seconds += seconds;
    obs::metrics().counter("store.prefetch_stalls").add();
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!slot.ready) {
      ++stats_.stalls;
      obs::metrics().counter("store.prefetch_stalls").add();
      obs::TraceSpan wait("store/wait");
      const util::WallTimer timer;
      ready_cv_.wait(lock, [&slot] { return slot.ready; });
      stats_.wait_seconds += timer.seconds();
    }
  }
  if (slot.error) std::rethrow_exception(slot.error);
  return slot.shard;
}

}  // namespace tpa::store
