// Shared machinery of bench_e2e: the timed-job runner, the benchmark's own
// span log, the per-thread allocation counter, telemetry discipline checks
// and peak-RSS sampling.
//
// Every layer is measured from outside: the workloads time calls into each
// layer's public functions and never reach into src/ for instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bench_e2e {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark proper) or "tiny" (the smoke test's sizes).
  std::string scale = "full";
  bool tiny() const { return scale == "tiny"; }
};

// --- clocks -----------------------------------------------------------------

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of every thread of the process, seconds.
double cpu_now();

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_cpus();

// --- allocation counter -----------------------------------------------------

/// operator new calls made by the calling thread so far. Thread-local, so
/// counting never contends; layer calls are counted on the thread that made
/// them (the serial passes), never across the daemon's pool.
std::uint64_t thread_allocations();

// --- telemetry discipline ---------------------------------------------------

/// Throws unless obs telemetry and the flight recorder are both off — called
/// at both edges of every timed window that must run quiet.
void require_quiet(const char* where);

// --- statistics -------------------------------------------------------------

/// Quantile with linear interpolation between order statistics (0 if empty).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// a / b, or 0 when b is 0 (a layer the job did not exercise).
double ratio(double a, double b);

// --- spans ------------------------------------------------------------------

/// The benchmark's own span log: nested, single-threaded, kept in memory.
/// A span's self time is its duration minus the time its children cover.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name);
  void close(std::size_t index);
  /// Sum of the self times of every closed span called `name`.
  double self_seconds(const std::string& name) const;
  /// Sum of the durations of every closed span called `name`.
  double total_seconds(const std::string& name) const;
  void clear();

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Span {
    const char* name = nullptr;
    double start = 0.0;
    double end = 0.0;
    double children = 0.0;
    std::size_t parent = kNone;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// 1 - self(job)/duration(job): the share of the "job" span that its layer
/// spans account for.
double span_coverage(const SpanLog& spans);

// --- memory -----------------------------------------------------------------

/// Resets the kernel's peak-RSS mark to the current RSS (false if the
/// kernel refuses; the peak then includes set-up).
bool reset_peak_rss();
/// Peak resident set size, MiB.
double peak_rss_mib();

// --- per-layer metrics ------------------------------------------------------

/// Per-layer metric values by name (units live in layer_metric_units()).
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric name with its unit, in output order. A workload
/// that does not exercise a layer reports that layer's metrics as 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// One value per traced job and metric; reported as medians.
class LayerSamples {
 public:
  void add(const std::string& name, double value);
  LayerValues medians() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// --- workloads --------------------------------------------------------------

/// How a timed job runs.
enum class Mode {
  kPlain,      ///< telemetry off, no benchmark spans: the end-to-end numbers
  kTraced,     ///< telemetry off, benchmark spans + per-call timing
  kTelemetry,  ///< obs telemetry on: the overhead pass
};

/// Outcome of the correctness gates, summed over every job of a run.
struct Gates {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  /// Counts `count` attempted operations of which `failures` failed.
  void add(std::uint64_t count, std::uint64_t failures,
           const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and builds the long-lived program objects.
  virtual void setup() = 0;
  /// Builds fresh per-job program objects (outside the timed window).
  virtual void prepare() = 0;
  /// The timed job.
  virtual void execute(Mode mode) = 0;
  /// Gates the last job's outputs (outside the timed window).
  virtual void verify(Gates& gates) = 0;
  /// Records the last traced job's layer numbers; may run (and gate)
  /// untimed serial replays of its own.
  virtual void after_traced(Gates& gates) = 0;
  /// Per-layer metrics. `plain_job_s` is the median untraced job time.
  virtual LayerValues layer_metrics(double plain_job_s) = 0;
  /// Worker threads the timed job can use.
  virtual std::size_t pool_threads() const { return 1; }
};

std::unique_ptr<Workload> make_offline_trace(const Options& options);
std::unique_ptr<Workload> make_service(const Options& options, bool durable);
std::unique_ptr<Workload> make_explore(const Options& options);

/// Runs one workload and prints the result line. Returns the exit code.
int run(const Options& options, Workload& workload);

}  // namespace bench_e2e
