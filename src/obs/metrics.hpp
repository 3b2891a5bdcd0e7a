// MetricRegistry — named counters, gauges and fixed-bucket histograms for
// the whole stack (DESIGN.md §3.8).
//
// Determinism contract: every metric is recorded through thread-sharded
// slots and merged in shard order at snapshot time, mirroring how
// ThreadPool::parallel_for partitions work. Counter and bucket totals are
// integer sums (commutative, so exact at any thread count); histogram sums
// are doubles merged in shard order, and every instrumented sample in this
// codebase is integer-valued (comparison counts, µs durations), so the
// merged sums are exact too. A parallel sweep therefore reports bit-identical
// metric totals to the serial sweep (tests/obs_concurrency_test.cpp).
//
// Recording is lock-free (relaxed atomics on pre-registered slots);
// registration takes a mutex and should happen outside hot loops — cache
// the returned reference (it is stable for the registry's lifetime, even
// across reset()).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace syncon::obs {

/// Number of recording slots per metric. Shard indices from
/// ThreadPool::parallel_for are taken modulo this; serial code records into
/// slot 0.
inline constexpr std::size_t kMetricShards = 16;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1, std::size_t shard = 0) {
    slots_[shard % kMetricShards].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  /// Merged total, slot 0 first (integer sum — order-independent).
  std::uint64_t total() const;
  void reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kMetricShards> slots_;
};

/// Last-written instantaneous value (queue depths, published state).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the gauge to v if it is below (CAS max) — high-water marks like
  /// peak live-log size, safe against concurrent setters.
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed bucket layout of a histogram: ascending upper bounds (Prometheus
/// `le` semantics — a sample lands in the first bucket whose bound is >= it;
/// one implicit +Inf overflow bucket follows).
struct HistogramSpec {
  std::vector<double> bounds;

  /// lo, lo*factor, lo*factor², ... up to and including the first bound
  /// >= hi. The default layout for µs latencies and comparison counts.
  static HistogramSpec exponential(double lo, double hi, double factor = 2.0);
  /// lo, lo+step, ..., n bounds total.
  static HistogramSpec linear(double lo, double step, std::size_t n);

  friend bool operator==(const HistogramSpec&,
                         const HistogramSpec&) = default;
};

/// Merged, immutable view of a histogram (see Histogram::snapshot).
struct HistogramSnapshot {
  std::vector<double> bounds;
  /// Per-bucket sample counts; counts.size() == bounds.size() + 1 (the last
  /// entry is the +Inf overflow bucket).
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Quantile in [0, 1], estimated by linear interpolation inside the
  /// containing bucket (the SampleSet::quantile convention lifted onto
  /// buckets) and clamped to the observed [min, max]. Requires count > 0.
  double quantile(double q) const;
};

/// Latency / size distribution over a fixed bucket layout.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const HistogramSpec& spec() const { return spec_; }

  void record(double value, std::size_t shard = 0);

  /// Merges the shard slots in shard order (deterministic double sum).
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  HistogramSpec spec_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// A point-in-time, name-sorted copy of every registered metric.
struct MetricsSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t counter_value = 0;
    std::int64_t gauge_value = 0;
    std::optional<HistogramSnapshot> histogram;
  };
  std::vector<Entry> entries;  // sorted by name

  const Entry* find(std::string_view name) const;
  std::uint64_t counter_value(std::string_view name) const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Process-wide default registry (what the built-in instrumentation and
  /// the exporters use).
  static MetricRegistry& global();

  /// Finds or creates. The returned reference is stable for the registry's
  /// lifetime (a gauge's until remove_gauge); reset() zeroes values but
  /// never invalidates it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Re-registration with a different bucket layout is a contract violation
  /// (two sites disagreeing about one metric is a bug, not a merge).
  Histogram& histogram(std::string_view name, const HistogramSpec& spec);
  /// Drops a gauge, if registered. Every reference to it dangles after, so
  /// remove only gauges whose writers fetch them by name on every write.
  void remove_gauge(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric value; registrations (and references) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace syncon::obs
