// Open-loop load generation against serve::Server.
//
// Requests are sent on a seeded Poisson schedule from the calling thread,
// whatever the server's state; a collector thread resolves the futures in
// send order.  Latency is measured from each request's *intended* send
// time, so a stall in the server also charges the requests it delayed
// (no coordinated omission), and the generator's own lateness is reported
// separately.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model_io.hpp"
#include "serve/server.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

struct LoadResult {
  std::vector<double> latency_us;  // resolve − intended send
  std::vector<double> service_us;  // resolve − actual submit
  std::vector<double> lag_us;      // actual submit − intended send
  std::uint64_t sent = 0;
  std::uint64_t shed = 0;        // refused at admission
  std::uint64_t unresolved = 0;  // accepted but never scored
  std::uint64_t mismatched = 0;  // score equals neither published model's
  std::uint64_t by_a = 0;        // resolved with model A's bulk score
  std::uint64_t by_b = 0;        // ... with model B's
  std::uint64_t backlog_at_end = 0;  // sent but unresolved when sending ended
  double elapsed_s = 0.0;  // first intended send until the server drained

  std::uint64_t failed() const noexcept { return shed + unresolved; }
  void merge(const LoadResult& other);
  /// Latency quantile q in each of `windows` equal runs of consecutive
  /// requests, then the median over windows: the typical window's tail,
  /// which a host hiccup confined to a few windows does not move.
  double windowed_quantile_us(double q, int windows = 8) const;
};

/// Bulk ("offline") scores of every row under the two models the server
/// holds in turn: the reference each served score is checked against.
struct ScoreReference {
  std::vector<float> a;
  std::vector<float> b;
};

ScoreReference bulk_scores(const tpa::sparse::CsrMatrix& rows,
                           const tpa::core::SavedModel& a,
                           const tpa::core::SavedModel& b);

/// Offers `requests` Poisson arrivals at `rate_rps` of random rows of
/// `rows`, then drains the server.  `at_midpoint`, when set, runs on its
/// own thread once half the schedule has been sent and the first request
/// has been resolved (a hot reload); it must have returned before the last
/// quarter of the schedule is sent, so requests before and after it are
/// always served (the generator waits for it only if it is that late).
LoadResult offer_load(tpa::serve::Server& server,
                      const tpa::sparse::CsrMatrix& rows, double rate_rps,
                      std::size_t requests, std::uint64_t seed,
                      const ScoreReference& reference,
                      const std::function<void()>& at_midpoint = {});

/// serve-open's serving phase.  Measures the server's saturation
/// throughput (serve.saturation_rps: back-to-back bursts, median of five),
/// offers a quarter of it open-loop for a fixed number of requests,
/// hot-reloads `reload_path` half-way, and checks every score; both models
/// must be seen serving.  Traced, it serves half the requests untraced
/// (serve.p50_us / p90_us / p99_us), runs the rate ladder (serve.max_rps),
/// serves the other half traced for the span-derived serve.* metrics, and
/// returns the traced/untraced p50 ratio − 1 (the tracing overhead on
/// serving); untraced it returns 0.
double serve_phase(Report& report, const tpa::sparse::CsrMatrix& rows,
                   tpa::serve::Server& server,
                   const ScoreReference& reference,
                   const std::string& reload_path, std::uint64_t seed,
                   bool traced, TraceLedger& ledger);

/// ServerConfig serve-open serves with: 2 pool threads (generator,
/// collector and pool fit in 4 cores), batches of up to 64 formed within
/// 200 µs, a 65536-deep admission queue.
tpa::serve::ServerConfig bench_server_config();

}  // namespace perfbench
