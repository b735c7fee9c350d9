// Shared plumbing of the benchmark program: clocks, order statistics, the
// result report, and the trace ledger that reads obs's span rings from
// outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (the same clock obs spans use).
double now_s();
/// Process CPU time (user + system, all threads) from getrusage.
double cpu_seconds();
/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// FNV-1a over the bytes of a float vector (bit-exactness fingerprint).
std::uint64_t hash_floats(std::span<const float> values);

/// Which clock a metric is read from.
enum class Clock { kWall, kSim, kCount };
const char* clock_name(Clock clock);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kWall;
};

/// Everything one benchmark invocation reports: the metrics plus the
/// correctness verdict and the attempted/failed operation counts.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           Clock clock);
  /// Records a violated correctness check: the run's output is refused.
  void check_failed(const std::string& why);
  /// Records one attempted operation (a training run or a request).
  void attempt(bool ok, std::uint64_t n = 1);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const noexcept { return errors_.empty(); }
  /// Human-readable table (one metric per line with unit and clock), the
  /// notes and check failures, then the one-line JSON result last.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-name totals of the complete ("X") spans obs recorded.
struct SpanStat {
  double total_us = 0.0;
  std::uint64_t count = 0;
  std::vector<double> durations_us;
  std::vector<std::int64_t> args;
};

/// Drains obs's per-thread trace rings into per-name span statistics.
/// drain() must run while no thread is recording (obs::reset_trace's
/// contract): between epochs of single-threaded or pool-joined work, or
/// after a solver that owns threads is destroyed.  Draining often keeps
/// every ring below its capacity, so no event is overwritten; events that
/// were overwritten anyway are summed into dropped().
class TraceLedger {
 public:
  void drain();
  /// Statistics of `name` since the last clear(); empty when absent.
  const SpanStat& span(const std::string& name) const;
  double total_s(const std::string& name) const {
    return span(name).total_us * 1e-6;
  }
  void clear() { spans_.clear(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::map<std::string, SpanStat> spans_;
  std::uint64_t dropped_ = 0;
};

/// Value of an obs counter (0 when it was never registered).
std::uint64_t obs_counter(const std::string& name);

}  // namespace perfbench
