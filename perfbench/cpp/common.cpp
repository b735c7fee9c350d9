#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t hash_floats(std::span<const float> values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kWall:
      return "wall";
    case Clock::kSim:
      return "sim";
    case Clock::kCount:
      return "count";
  }
  return "?";
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, Clock clock) {
  if (!std::isfinite(value)) {
    check_failed("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, clock});
}

void Report::check_failed(const std::string& why) { errors_.push_back(why); }

void Report::attempt(bool ok, std::uint64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Report::print() const {
  for (const auto& line : notes_) std::printf("note  %s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %-32s %18.6f %-7s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), clock_name(m.clock));
  }
  std::printf("metric %-32s %18.6f %-7s [%s]  (%llu of %llu attempted)\n",
              "failed_frac",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              "frac", "count", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  // Also on standard error, where a failed run's log tail is read.
  for (const auto& e : errors_) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void TraceLedger::drain() {
  for (const auto& record : tpa::obs::trace_records()) {
    if (record.phase != 'X') continue;
    auto& stat = spans_[record.name];
    stat.total_us += record.dur_us;
    ++stat.count;
    stat.durations_us.push_back(record.dur_us);
    stat.args.push_back(record.arg);
  }
  dropped_ += tpa::obs::trace_events_dropped();
  tpa::obs::reset_trace();
}

const SpanStat& TraceLedger::span(const std::string& name) const {
  static const SpanStat kEmpty;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

std::uint64_t obs_counter(const std::string& name) {
  return tpa::obs::metrics().counter(name).value();
}

}  // namespace perfbench
