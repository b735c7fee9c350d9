#include "core/replica_set.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "linalg/vector_ops.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace tpa::core {
namespace {

// Entries of T per 64-byte line: 16 floats or 32 halves (8 bitmap words).
template <typename T>
constexpr std::size_t per_line = util::kCacheLineBytes / sizeof(T);

// Slots start on fresh 64-byte lines in both storage widths, and so does
// every replica's dirty bitmap.
template <typename T>
std::size_t padded_stride(std::size_t dim) {
  return (dim + per_line<T> - 1) / per_line<T> * per_line<T>;
}

// First bit at or after `from` in [0, bits) that equals `set`, or `bits`.
std::size_t next_bit(const std::uint64_t* words, std::size_t bits,
                     std::size_t from, bool set) {
  const std::size_t count = (bits + 63) / 64;
  const std::uint64_t flip = set ? 0 : ~std::uint64_t{0};
  std::size_t w = from / 64;
  if (w >= count) return bits;
  std::uint64_t word = (words[w] ^ flip) & (~std::uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w == count) return bits;
    word = words[w] ^ flip;
  }
  return std::min(bits, w * 64 + std::countr_zero(word));
}

// Calls fn(begin, end) for every maximal run [begin, end) of set bits.
template <typename Fn>
void for_each_run(const std::uint64_t* words, std::size_t bits, Fn&& fn) {
  for (std::size_t begin = next_bit(words, bits, 0, true); begin < bits;) {
    const std::size_t end = next_bit(words, bits, begin, false);
    fn(begin, end);
    begin = next_bit(words, bits, end, true);
  }
}

}  // namespace

void ReplicaSet::configure(std::size_t dim, int count,
                           linalg::SharedPrecision precision) {
  assert(count >= 1);
  if (dim == dim_ && count == count_ && precision == precision_) return;
  dim_ = dim;
  count_ = count;
  precision_ = precision;
  const auto slots = static_cast<std::size_t>(count + 1);
  // Zero-fill the pad tail once; merges only ever touch [0, dim) per slot.
  if (precision == linalg::SharedPrecision::kFp16) {
    stride_ = padded_stride<linalg::Half>(dim);
    lines_ = stride_ / per_line<linalg::Half>;
    line_shift_ = std::countr_zero(per_line<linalg::Half>);
    half_storage_.assign(stride_ * slots, linalg::Half{});
    storage_.assign(0, 0.0F);
  } else {
    stride_ = padded_stride<float>(dim);
    lines_ = stride_ / per_line<float>;
    line_shift_ = std::countr_zero(per_line<float>);
    storage_.assign(stride_ * slots, 0.0F);
    half_storage_.assign(0, linalg::Half{});
  }
  const std::size_t words = (lines_ + 63) / 64;
  dirty_stride_ = padded_stride<std::uint64_t>(words);
  dirty_.assign(dirty_stride_ * static_cast<std::size_t>(count), 0);
  union_.assign(words, 0);
}

void ReplicaSet::mark_all(int r) noexcept {
  std::uint64_t* bits = dirty(r);
  for (std::size_t line = 0; line < lines_; line += 64) {
    const std::size_t left = lines_ - line;
    bits[line / 64] =
        left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
  }
}

void ReplicaSet::scatter(int r, double alpha,
                         const sparse::SparseVectorView& a) {
  if (precision_ == linalg::SharedPrecision::kFp16) {
    linalg::sparse_axpy(
        alpha, a, std::span<linalg::Half>(slot<linalg::Half>(r + 1), dim_));
  } else {
    linalg::sparse_axpy(alpha, a, std::span<float>(slot<float>(r + 1), dim_));
  }
  std::uint64_t* bits = dirty(r);
  for (const sparse::Index i : a.indices) {
    const std::size_t line = i >> line_shift_;
    bits[line / 64] |= std::uint64_t{1} << (line % 64);
  }
}

void ReplicaSet::reset_from(std::span<const float> global) {
  assert(global.size() == dim_);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  if (precision_ == linalg::SharedPrecision::kFp16) {
    // Narrow once into the base slot, then replicate the half image — every
    // slot starts from the identical RNE rounding of the global vector.
    linalg::Half* base = slot<linalg::Half>(0);
    linalg::narrow(global, {base, dim_});
    for (int r = 0; r < count_; ++r) {
      std::memcpy(slot<linalg::Half>(r + 1), base, dim_ * sizeof(linalg::Half));
    }
    // A lone replica's merge is a widening copy, which also rounds the
    // entries nobody wrote to half precision: mark it whole so the first
    // merge still does that everywhere.
    if (count_ == 1) mark_all(0);
    return;
  }
  for (int s = 0; s <= count_; ++s) {
    std::memcpy(slot<float>(s), global.data(), dim_ * sizeof(float));
  }
}

template <typename T>
std::size_t ReplicaSet::merge_dirty(std::span<float> global) {
  // Entry range [begin, begin + n) of the line run [first, last).
  const auto entries = [this](std::size_t first, std::size_t last) {
    const std::size_t begin = first * per_line<T>;
    return std::pair{begin, std::min(last * per_line<T>, dim_) - begin};
  };
  // Fold: each replica over its own dirty runs, in replica order, so an
  // entry sees the same sequence of double-precision adds as a dense fold
  // minus the +0.0s of replicas that did not write its line.
  std::fill(union_.begin(), union_.end(), 0);
  for (int r = 0; r < count_; ++r) {
    std::uint64_t* bits = dirty(r);
    for_each_run(bits, lines_, [&](std::size_t first, std::size_t last) {
      const auto [begin, n] = entries(first, last);
      const auto w = global.subspan(begin, n);
      const std::span<const T> rep(slot<T>(r + 1) + begin, n);
      if (count_ > 1) {
        linalg::add_diff(w, rep, std::span<const T>(slot<T>(0) + begin, n));
      } else if constexpr (std::is_same_v<T, linalg::Half>) {
        // Single replica: widening its half image verbatim (exact) keeps
        // the merge self-consistent with the fp32 case below — the merged
        // vector *is* the replica, at its storage precision.
        linalg::widen(rep, w);
      } else {
        // One replica owns every coordinate: the merged vector *is* the
        // replica.  Copying it verbatim (rather than folding w + (r − w),
        // which is not exactly r in float) keeps the merge_every=1
        // single-thread path bit-exact against the sequential solver.
        std::copy(rep.begin(), rep.end(), w.begin());
      }
    });
    for (std::size_t w = 0; w < union_.size(); ++w) {
      union_[w] |= bits[w];
      bits[w] = 0;
    }
  }
  // Reseed base and every replica on the union of the dirty lines (under
  // fp16 the merged values are narrowed once, into base).
  std::size_t rewritten = 0;
  for_each_run(union_.data(), lines_, [&](std::size_t first, std::size_t last) {
    const auto [begin, n] = entries(first, last);
    rewritten += n;
    T* base = slot<T>(0) + begin;
    if constexpr (std::is_same_v<T, linalg::Half>) {
      linalg::narrow(global.subspan(begin, n), {base, n});
    } else {
      std::memcpy(base, global.data() + begin, n * sizeof(float));
    }
    for (int r = 0; r < count_; ++r) {
      std::memcpy(slot<T>(r + 1) + begin, base, n * sizeof(T));
    }
  });
  return rewritten;
}

void ReplicaSet::merge_into(std::span<float> global) {
  assert(global.size() == dim_);
  obs::TraceSpan span("replica/merge");
  static obs::Counter& merges = obs::metrics().counter("solver.merges");
  static obs::Counter& merge_entries =
      obs::metrics().counter("solver.merge_entries");
  merges.add(1);
  merge_entries.add(precision_ == linalg::SharedPrecision::kFp16
                        ? merge_dirty<linalg::Half>(global)
                        : merge_dirty<float>(global));
}

}  // namespace tpa::core
