#include "harness.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/flight.hpp"
#include "obs/telemetry.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// Counting allocator hooks, as in tests/obs_test.cpp. The counter is
// thread-local so the daemon's workers never contend on it.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bench_e2e {

namespace {

/// Rounds every run makes, however short --seconds is.
constexpr std::size_t kMinRounds = 3;

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "n/a" : line;
}

std::string load_average() {
  std::istringstream fields(first_line("/proc/loadavg"));
  std::string one, five, fifteen;
  fields >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

/// Timings only mean something from an optimized, uninstrumented build.
bool build_is_valid() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::string(SYNCON_BENCH_BUILD_TYPE) == "Release" &&
         std::string(SYNCON_BENCH_SANITIZE) == "off";
#endif
}

std::string host_fingerprint(std::size_t pool_threads,
                             const std::string& load_start,
                             const std::string& load_end) {
  std::ostringstream os;
  os << "{\"nproc\": " << host_cpus() << ", \"cpu_max\": \""
     << first_line("/sys/fs/cgroup/cpu.max") << "\", \"load_start\": \""
     << load_start << "\", \"load_end\": \"" << load_end
     << "\", \"compiler\": \"" << SYNCON_BENCH_COMPILER
     << "\", \"build_type\": \"" << SYNCON_BENCH_BUILD_TYPE
     << "\", \"sanitize\": \"" << SYNCON_BENCH_SANITIZE
     << "\", \"pool_threads\": " << pool_threads
     << ", \"valid\": " << (build_is_valid() ? "true" : "false") << "}";
  return os.str();
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// "min, median [q1, q3] (n=…)" of a timed series, for the report on stderr.
std::string spread(const std::vector<double>& values) {
  char text[160];
  std::snprintf(text, sizeof text, "min %.6g, median %.6g [%.6g, %.6g] (n=%zu)",
                fastest(values), median(values), quantile(values, 0.25),
                quantile(values, 0.75), values.size());
  return text;
}

void append_metric(std::string& out, const std::string& name, double value,
                   const std::string& unit) {
  char number[40];
  std::snprintf(number, sizeof number, "%.10g",
                std::isfinite(value) ? value : 0.0);
  if (!out.empty()) out += ", ";
  out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
         unit + "\"}";
}

}  // namespace

double wall_now() { return clock_seconds(CLOCK_MONOTONIC); }
double cpu_now() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t thread_allocations() { return t_allocations; }

void require_quiet(const char* where) {
  if (syncon::obs::enabled() || syncon::obs::flight_enabled()) {
    throw std::logic_error(std::string("telemetry is on in a timed window (") +
                           where + ")");
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (position - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::size_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? kNone : stack_.back();
  span.start = wall_now();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  Span& span = spans_[index];
  span.end = wall_now();
  stack_.pop_back();
  if (span.parent != kNone) {
    spans_[span.parent].children += span.end - span.start;
  }
}

double SpanLog::self_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end - span.start - span.children;
  }
  return total;
}

double SpanLog::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end - span.start;
  }
  return total;
}

void SpanLog::clear() {
  spans_.clear();
  stack_.clear();
}

double span_coverage(const SpanLog& spans) {
  return 1.0 - ratio(spans.self_seconds("job"), spans.total_seconds("job"));
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return static_cast<bool>(clear_refs);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"model.stamp_ns_per_event", "ns"},
      {"model.stamp_allocs_per_event", "count"},
      {"nonatomic.register_us_per_interval", "us"},
      {"nonatomic.register_allocs_per_interval", "count"},
      {"relations.exhaustive_ns_per_pair", "ns"},
      {"relations.pruned_ns_per_pair", "ns"},
      {"relations.comparisons_per_pair", "count"},
      {"relations.pruned_comparisons_per_pair", "count"},
      {"relations.pruned_evaluated_frac", "ratio"},
      {"relations.allocs_per_pair", "count"},
      {"monitor.find_pairs_ns_per_pair", "ns"},
      {"service.frames_per_s", "1/s"},
      {"service.ingest_p50_us", "us"},
      {"service.ingest_p99_us", "us"},
      {"service.wire_bytes_per_event", "bytes"},
      {"service.submit_ns_per_frame", "ns"},
      {"service.pump_us_per_round", "us"},
      {"service.reject_frac", "ratio"},
      {"service.peek_ns_per_frame", "ns"},
      {"service.decode_ns_per_frame", "ns"},
      {"service.wire_bytes_per_frame", "bytes"},
      {"service.encode_ns_per_frame", "ns"},
      {"online.event_apply_ns", "ns"},
      {"online.report_apply_ns", "ns"},
      {"online.checkpoint_apply_ns", "ns"},
      {"online.lifecycle_apply_ns", "ns"},
      {"online.allocs_per_op", "count"},
      {"online.compact_us", "us"},
      {"online.reclaimed_per_compaction", "count"},
      {"online.live_events_peak", "count"},
      {"store.append_ns", "ns"},
      {"store.sync_ns", "ns"},
      {"store.syncs_per_frame", "count"},
      {"store.journal_bytes_per_frame", "bytes"},
      {"store.journal_bytes_peak", "bytes"},
      {"support.pool_busy_frac", "frac"},
      {"explore.executed_per_class", "count"},
      {"explore.pruned_per_class", "count"},
      {"explore.dead_ends_per_class", "count"},
      {"explore.check_frac", "frac"},
      {"obs.telemetry_overhead_frac", "frac"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.span_coverage_frac", "frac"},
  };
  return units;
}

void LayerSamples::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

LayerValues LayerSamples::medians() const {
  LayerValues out;
  for (const auto& [name, values] : samples_) out[name] = median(values);
  return out;
}

void Gates::add(std::uint64_t count, std::uint64_t failures,
                const std::string& what) {
  attempted += count;
  failed += failures;
  if (failures > 0 && errors.size() < 8) {
    errors.push_back(what + " (" + std::to_string(failures) + ")");
  }
}

int run(const Options& options, Workload& workload) {
  const std::string load_start = load_average();
  if (!build_is_valid()) {
    std::fprintf(stderr, "bench_e2e: refusing to measure this build: %s\n",
                 host_fingerprint(workload.pool_threads(), load_start,
                                  load_start)
                     .c_str());
    return 3;
  }

  // Set-up: input generation plus the construction of the program objects
  // up to the first timed call. An untraced run sets up again before every
  // job, so setup_s samples the host as often as job_s does; the previous
  // job's objects are dropped (by prepare) before the clock starts.
  std::vector<double> setups;
  const auto set_up = [&] {
    require_quiet("set-up");
    workload.prepare();
    const double start = wall_now();
    workload.setup();
    workload.prepare();
    setups.push_back(wall_now() - start);
  };
  set_up();
  const bool rss_reset = reset_peak_rss();

  const std::vector<Mode> modes =
      options.trace
          ? std::vector<Mode>{Mode::kPlain, Mode::kTraced, Mode::kTelemetry}
          : std::vector<Mode>{Mode::kPlain};
  std::map<Mode, std::vector<double>> wall, cpu;
  Gates gates;
  const double deadline = wall_now() + options.seconds;
  for (std::size_t round = 0; round < kMinRounds || wall_now() < deadline;
       ++round) {
    if (!options.trace && round > 0) set_up();
    for (const Mode mode : modes) {
      workload.prepare();
      if (mode == Mode::kTelemetry) {
        syncon::obs::set_enabled(true);
      } else {
        require_quiet("job start");
      }
      const double cpu0 = cpu_now();
      const double wall0 = wall_now();
      workload.execute(mode);
      const double wall1 = wall_now();
      const double cpu1 = cpu_now();
      if (mode == Mode::kTelemetry) {
        syncon::obs::set_enabled(false);
      } else {
        require_quiet("job end");
      }
      wall[mode].push_back(wall1 - wall0);
      cpu[mode].push_back(cpu1 - cpu0);
      workload.verify(gates);
      if (mode == Mode::kTraced) workload.after_traced(gates);
    }
  }
  const double peak_rss = peak_rss_mib();
  // The fastest repeat: on a shared host, neighbours only ever add time, so
  // the least-disturbed job is the steadiest estimate of the job's cost.
  // Medians and quartiles go to stderr.
  const double job_s = fastest(wall[Mode::kPlain]);
  const double job_cpu_s = fastest(cpu[Mode::kPlain]);

  std::fprintf(stderr, "bench_e2e host %s\n",
               host_fingerprint(workload.pool_threads(), load_start,
                                load_average())
                   .c_str());
  std::fprintf(stderr, "bench_e2e %s seed %llu: setup_s %s; job_s %s; "
               "job_cpu_s %s%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               spread(setups).c_str(), spread(wall[Mode::kPlain]).c_str(),
               spread(cpu[Mode::kPlain]).c_str(),
               rss_reset ? "" : " (peak RSS includes set-up)");
  if (options.trace) {
    std::fprintf(stderr, "bench_e2e traced job_s %s; telemetry-on job_s %s\n",
                 spread(wall[Mode::kTraced]).c_str(),
                 spread(wall[Mode::kTelemetry]).c_str());
  }
  for (const std::string& error : gates.errors) {
    std::fprintf(stderr, "bench_e2e FAILED: %s\n", error.c_str());
  }

  std::string metrics;
  if (!options.trace) {
    append_metric(metrics, "job_s", job_s, "s");
    append_metric(metrics, "job_cpu_s", job_cpu_s, "s");
    append_metric(metrics, "peak_rss_mib", peak_rss, "MiB");
    append_metric(metrics, "setup_s", fastest(setups), "s");
  } else {
    LayerValues values = workload.layer_metrics(job_s);
    values["support.pool_busy_frac"] =
        ratio(job_cpu_s, job_s * static_cast<double>(workload.pool_threads()));
    values["obs.telemetry_overhead_frac"] =
        ratio(fastest(wall[Mode::kTelemetry]), job_s) - 1.0;
    values["bench.trace_overhead_frac"] =
        ratio(fastest(wall[Mode::kTraced]), job_s) - 1.0;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = values.find(name);
      append_metric(metrics, name, it == values.end() ? 0.0 : it->second,
                    unit);
      if (it != values.end()) values.erase(it);
    }
    if (!values.empty()) {
      throw std::logic_error("per-layer metric without a unit: " +
                             values.begin()->first);
    }
  }
  const bool correct = gates.failed == 0 && gates.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(gates.attempted),
      static_cast<unsigned long long>(gates.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace bench_e2e
