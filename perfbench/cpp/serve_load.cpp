#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/trace.hpp"
#include "serve/scorer.hpp"
#include "serve/servable_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using tpa::sparse::Index;

// The serving latency limit on p99 (from intended send) that a rate on the
// ladder must meet, and the ladder itself: 1000 * 2^(k/16) requests/s, so
// neighbouring rungs are 4.4% apart.
constexpr double kP99LimitUs = 10000.0;
constexpr int kRungsPerDoubling = 16;
constexpr int kMaxRung = 10 * kRungsPerDoubling;  // ~1M requests/s

// The offered rate as a share of the server's measured saturation
// throughput: a quarter, so batches fill from arrivals within the batching
// window, while the single generator thread keeps up (at a half its p99
// lag reached 3.8 ms and the tail measured the generator).
constexpr double kLoadFraction = 0.25;
// Requests in the offered-rate phase: a count, not a duration, so the
// generator's buffers, and with them the peak RSS, do not depend on the
// rate.
constexpr std::size_t kOfferedRequests = 200000;

double rung_rate(int k) {
  return 1000.0 * std::pow(2.0, static_cast<double>(k) / kRungsPerDoubling);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Waits until the monotonic clock reaches `deadline` (seconds) by
/// sleeping, not spinning: a spinning generator takes a core from the
/// server it drives.  Oversleeping shows up as generator lag and, since
/// latency runs from the intended send time, in the latencies too.
void wait_until(double deadline) {
  const double left = deadline - now_s();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

struct Slot {
  tpa::serve::SubmitResult result;
  double intended = 0.0;
  double sent = 0.0;
  double resolved = 0.0;
  Index row = 0;
  float score = 0.0F;
  bool ok = false;
};

struct ProbeVerdict {
  bool pass = false;
  std::uint64_t mismatched = 0;
  double served_rps = 0.0;  // requests resolved per second of the probe
};

ProbeVerdict probe_rate(tpa::serve::Server& server,
                        const tpa::sparse::CsrMatrix& rows, double rate,
                        std::uint64_t seed, const ScoreReference& reference) {
  // Long enough for >= 4000 requests (>= 40 samples beyond p99), 0.25-1 s.
  const double seconds = std::clamp(4000.0 / rate, 0.25, 1.0);
  const auto r = offer_load(server, rows, rate,
                            static_cast<std::size_t>(rate * seconds), seed,
                            reference);
  const double backlog_limit = std::max(64.0, rate * kP99LimitUs * 1e-6);
  ProbeVerdict verdict;
  verdict.mismatched = r.mismatched;
  verdict.served_rps =
      static_cast<double>(r.latency_us.size()) / std::max(1e-9, r.elapsed_s);
  verdict.pass = r.failed() == 0 && !r.latency_us.empty() &&
                 quantile(r.latency_us, 0.99) <= kP99LimitUs &&
                 static_cast<double>(r.backlog_at_end) <= backlog_limit;
  return verdict;
}

/// Attempts, failures and the score checks of one serving phase.
void check_served(Report& report, const LoadResult& served) {
  report.attempt(true, served.sent - served.failed());
  report.attempt(false, served.failed());
  if (served.mismatched > 0) {
    report.check_failed(std::to_string(served.mismatched) +
                        " served scores match no published model's bulk "
                        "score");
  }
  if (served.by_a == 0 || served.by_b == 0) {
    report.check_failed("the mid-run reload was not observed (" +
                        std::to_string(served.by_a) + " scored by model A, " +
                        std::to_string(served.by_b) + " by model B)");
  }
  if (served.latency_us.empty()) report.check_failed("no request was served");
}

/// The server's saturation throughput: `requests` submitted back to back
/// (well inside the admission queue, so none is shed), timed from the first
/// submit until every score is resolved; the median of five bursts.  Adds
/// the bursts' attempts, failures and score checks to `report`.
double measure_saturation_rps(Report& report, tpa::serve::Server& server,
                              const tpa::sparse::CsrMatrix& rows,
                              std::uint64_t seed,
                              const ScoreReference& reference,
                              std::size_t requests = 16384) {
  tpa::util::Rng rng(seed);
  std::vector<Index> picks(requests);
  std::vector<tpa::serve::SubmitResult> results(requests);
  std::vector<double> rates;
  std::uint64_t mismatched = 0;
  for (int burst = 0; burst < 5; ++burst) {
    for (auto& row : picks) row = static_cast<Index>(rng() % rows.rows());
    const double t0 = now_s();
    for (std::size_t i = 0; i < requests; ++i) {
      results[i] = server.submit(rows.row(picks[i]));
    }
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < requests; ++i) {
      if (!results[i].accepted()) {
        ++failed;
        continue;
      }
      try {
        const float score = results[i].prediction.get();
        const auto r = static_cast<std::size_t>(picks[i]);
        if (score != reference.a[r] && score != reference.b[r]) {
          ++mismatched;
        }
      } catch (const std::exception&) {
        ++failed;
      }
    }
    rates.push_back(static_cast<double>(requests) / (now_s() - t0));
    report.attempt(true, requests - failed);
    report.attempt(false, failed);
  }
  if (mismatched > 0) {
    report.check_failed("saturation bursts: " + std::to_string(mismatched) +
                        " scores match no published model");
  }
  return median(rates);
}

/// The rate the server served at on the highest ladder rung it sustains
/// (see kP99LimitUs): resolved requests per second of that rung's passing
/// probe, so the figure is measured rather than the rung's nominal rate.
/// 0 when no rung passes.  Rung search: grow by doublings from `start_rps`,
/// then bisect.  Adds the probes' mismatched scores to `mismatched`.
double search_max_rate(tpa::serve::Server& server,
                       const tpa::sparse::CsrMatrix& rows, double start_rps,
                       std::uint64_t seed, const ScoreReference& reference,
                       std::uint64_t& mismatched) {
  int k = static_cast<int>(std::floor(
      kRungsPerDoubling * std::log2(start_rps / 1000.0)));
  k = std::clamp(k, 0, kMaxRung);
  int lo = -1;
  int hi = kMaxRung + 1;
  std::uint64_t probe_seed = seed * 1000 + 17;
  std::vector<double> served_rps(kMaxRung + 1, 0.0);
  // A rung passes when one of three probes passes: a host hiccup
  // inside a quarter-second probe must not end the search, while a
  // rate the server cannot sustain fails every probe.
  const auto pass = [&](int rung) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto v = probe_rate(server, rows, rung_rate(rung),
                                ++probe_seed, reference);
      mismatched += v.mismatched;
      if (v.pass) {
        served_rps[static_cast<std::size_t>(rung)] = v.served_rps;
        return true;
      }
    }
    return false;
  };
  if (pass(k)) {
    lo = k;
    while (lo < kMaxRung) {
      const int next = std::min(lo + kRungsPerDoubling, kMaxRung);
      if (!pass(next)) {
        hi = next;
        break;
      }
      lo = next;
    }
  } else {
    hi = k;
    while (hi > 0) {
      const int next = std::max(hi - kRungsPerDoubling, 0);
      if (pass(next)) {
        lo = next;
        break;
      }
      hi = next;
    }
  }
  while (lo >= 0 && hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (pass(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo >= 0 ? served_rps[static_cast<std::size_t>(lo)] : 0.0;
}

}  // namespace

void LoadResult::merge(const LoadResult& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  service_us.insert(service_us.end(), other.service_us.begin(),
                    other.service_us.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  sent += other.sent;
  shed += other.shed;
  unresolved += other.unresolved;
  mismatched += other.mismatched;
  by_a += other.by_a;
  by_b += other.by_b;
  backlog_at_end = std::max(backlog_at_end, other.backlog_at_end);
  elapsed_s += other.elapsed_s;
}

double LoadResult::windowed_quantile_us(double q, int windows) const {
  std::vector<double> per_window;
  const std::size_t n = latency_us.size();
  const auto k = static_cast<std::size_t>(windows);
  for (std::size_t w = 0; w < k; ++w) {
    const auto begin =
        latency_us.begin() + static_cast<std::ptrdiff_t>(n * w / k);
    const auto end =
        latency_us.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / k);
    if (begin != end) per_window.push_back(quantile({begin, end}, q));
  }
  return median(per_window);
}

tpa::serve::ServerConfig bench_server_config() {
  tpa::serve::ServerConfig config;
  config.threads = 2;
  config.batcher.max_batch_size = 64;
  config.batcher.max_wait = std::chrono::microseconds(200);
  // Deep enough that a few-ms host stall at the top rates queues instead of
  // shedding; sustained overload still fails a rung through p99 and backlog.
  config.batcher.queue_capacity = 65536;
  return config;
}

ScoreReference bulk_scores(const tpa::sparse::CsrMatrix& rows,
                           const tpa::core::SavedModel& a,
                           const tpa::core::SavedModel& b) {
  tpa::util::ThreadPool pool(2);
  ScoreReference reference;
  reference.a = tpa::serve::score_matrix(
      pool, rows, tpa::serve::ServableModel::from_saved(a, 1));
  reference.b = tpa::serve::score_matrix(
      pool, rows, tpa::serve::ServableModel::from_saved(b, 2));
  return reference;
}

LoadResult offer_load(tpa::serve::Server& server,
                      const tpa::sparse::CsrMatrix& rows, double rate_rps,
                      std::size_t requests, std::uint64_t seed,
                      const ScoreReference& reference,
                      const std::function<void()>& at_midpoint) {
  // The whole schedule is drawn up front: arrival offsets and rows.
  tpa::util::Rng rng(seed);
  const std::size_t n = std::max<std::size_t>(1, requests);
  std::vector<Slot> slots(n);
  double t = 0.0;
  for (auto& slot : slots) {
    t += -std::log1p(-rng.uniform()) / rate_rps;
    slot.intended = t;
    slot.row = static_cast<Index>(rng() % rows.rows());
  }

  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> processed{0};
  // The collector stamps each request when it sees its future ready.  It
  // polls every outstanding future rather than blocking on the oldest: a
  // blocked thread's wake-up latency (on a virtual machine, a vCPU wake)
  // would be charged to the server, and requests finishing out of order
  // would be stamped late.  It sleeps only when nothing is outstanding.
  std::thread collector([&] {
    std::vector<char> done(n, 0);
    std::size_t head = 0;
    while (head < n) {
      const std::size_t sent = published.load(std::memory_order_acquire);
      if (head == sent) {
        published.wait(sent, std::memory_order_acquire);
        continue;
      }
      bool progress = false;
      for (std::size_t i = head; i < sent; ++i) {
        if (done[i] != 0) continue;
        auto& slot = slots[i];
        if (slot.result.accepted()) {
          if (slot.result.prediction.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            continue;
          }
          slot.resolved = now_s();
          try {
            slot.score = slot.result.prediction.get();
            slot.ok = true;
          } catch (const std::exception&) {
            slot.ok = false;
          }
        }
        done[i] = 1;
        progress = true;
      }
      while (head < sent && done[head] != 0) ++head;
      processed.store(head, std::memory_order_release);
      if (!progress) cpu_relax();
    }
  });

  LoadResult result;
  std::thread midpoint;
  const double start = now_s() + 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    auto& slot = slots[i];
    slot.intended += start;
    wait_until(slot.intended);
    slot.sent = now_s();
    {
      const tpa::obs::TraceSpan span("bench/submit");
      slot.result = server.submit(rows.row(slot.row));
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
    if (at_midpoint && i == n / 2) {
      midpoint = std::thread([&] {
        while (processed.load(std::memory_order_acquire) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        at_midpoint();
      });
    }
    if (i == n / 2 + n / 4 && midpoint.joinable()) midpoint.join();
  }
  result.backlog_at_end = n - processed.load(std::memory_order_acquire);
  if (midpoint.joinable()) midpoint.join();
  server.drain();
  collector.join();
  result.elapsed_s = now_s() - start;

  result.sent = n;
  result.latency_us.reserve(n);
  result.service_us.reserve(n);
  result.lag_us.reserve(n);
  for (const auto& slot : slots) {
    result.lag_us.push_back(1e6 * (slot.sent - slot.intended));
    if (!slot.result.accepted()) {
      ++result.shed;
      continue;
    }
    if (!slot.ok) {
      ++result.unresolved;
      continue;
    }
    result.latency_us.push_back(1e6 * (slot.resolved - slot.intended));
    result.service_us.push_back(1e6 * (slot.resolved - slot.sent));
    const auto r = static_cast<std::size_t>(slot.row);
    if (slot.score == reference.a[r]) {
      ++result.by_a;
    } else if (slot.score == reference.b[r]) {
      ++result.by_b;
    } else {
      ++result.mismatched;
    }
  }
  return result;
}

double serve_phase(Report& report, const tpa::sparse::CsrMatrix& rows,
                   tpa::serve::Server& server,
                   const ScoreReference& reference,
                   const std::string& reload_path, std::uint64_t seed,
                   bool traced, TraceLedger& ledger) {
  const std::function<void()> reload = [&server, &reload_path] {
    const tpa::obs::TraceSpan span("bench/reload");
    try {
      server.reload(reload_path);
    } catch (const std::exception& error) {
      // The by-model counts below then show the reload never landed.
      std::fprintf(stderr, "reload failed: %s\n", error.what());
    }
  };
  const double saturation_rps =
      measure_saturation_rps(report, server, rows, seed + 7919, reference);
  const double rate = kLoadFraction * saturation_rps;
  LoadResult fixed;
  if (!traced) {
    fixed = offer_load(server, rows, rate, kOfferedRequests, seed, reference,
                       reload);
    check_served(report, fixed);
    report.note("serve: " + std::to_string(fixed.sent) + " requests at " +
                std::to_string(rate) + "/s offered (saturation " +
                std::to_string(saturation_rps) + "/s), " +
                std::to_string(fixed.latency_us.size()) + " resolved");
    return 0.0;
  }

  // Traced run.  Half the fixed-rate requests untraced: the serving
  // latencies and the overhead baseline; then the rate ladder, untraced;
  // then the other half traced, in segments small enough that the
  // generator's ring (one bench/submit span per request) never wraps,
  // drained in between.
  constexpr std::size_t kTracedSegment = 16384;
  ledger.drain();
  const auto base =
      offer_load(server, rows, rate, kOfferedRequests / 2, seed, reference);
  fixed.merge(base);
  std::uint64_t mismatched = 0;
  const double max_rps =
      search_max_rate(server, rows, rate, seed, reference, mismatched);
  if (mismatched > 0) {
    report.check_failed("rate ladder: " + std::to_string(mismatched) +
                        " scores match no published model");
  }
  LoadResult traced_part;
  const std::size_t traced_requests = kOfferedRequests / 2;
  for (std::size_t s = 0; s * kTracedSegment < traced_requests; ++s) {
    tpa::obs::set_trace_enabled(true);
    auto part = offer_load(
        server, rows, rate,
        std::min(kTracedSegment, traced_requests - s * kTracedSegment),
        seed + 1 + s, reference, s == 0 ? reload : std::function<void()>{});
    tpa::obs::set_trace_enabled(false);
    ledger.drain();
    traced_part.merge(part);
  }
  fixed.merge(traced_part);
  check_served(report, fixed);
  if (base.latency_us.empty() || traced_part.latency_us.empty()) return 0.0;

  report.add("serve.saturation_rps", saturation_rps, "1/s", Clock::kWall);
  report.add("serve.p50_us", base.windowed_quantile_us(0.5), "us",
             Clock::kWall);
  report.add("serve.p90_us", base.windowed_quantile_us(0.9), "us",
             Clock::kWall);
  report.add("serve.p99_us", quantile(base.latency_us, 0.99), "us",
             Clock::kWall);
  report.add("serve.max_rps", max_rps, "1/s", Clock::kWall);
  // serve/batch spans carry the batch size as their argument.
  const auto& batches = ledger.span("serve/batch");
  const std::vector<double> batch_sizes(batches.args.begin(),
                                        batches.args.end());
  double requests = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    requests += batch_sizes[i];
    weighted += batches.durations_us[i] * batch_sizes[i];
  }
  report.add("serve.batch_p50_us", quantile(batches.durations_us, 0.5), "us",
             Clock::kWall);
  report.add("serve.batch_p99_us", quantile(batches.durations_us, 0.99), "us",
             Clock::kWall);
  report.add("serve.mean_batch", mean(batch_sizes), "count", Clock::kCount);
  // Submit → resolve minus the size-weighted batch execution time: what a
  // request spends queued and waiting for its batch to form.
  report.add("serve.queue_us",
             std::max(0.0, mean(fixed.service_us) -
                               weighted / std::max(1.0, requests)),
             "us",
             Clock::kWall);
  report.add("serve.shed", static_cast<double>(fixed.shed), "count",
             Clock::kCount);
  report.add("serve.reload_s", ledger.total_s("serve/reload"), "s",
             Clock::kWall);
  report.add("loadgen.lag_p99_us", quantile(fixed.lag_us, 0.99), "us",
             Clock::kWall);
  return traced_part.windowed_quantile_us(0.5) /
             std::max(1e-9, base.windowed_quantile_us(0.5)) -
         1.0;
}

}  // namespace perfbench
