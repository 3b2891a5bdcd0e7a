#include "obs/metrics.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon::obs {

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() {
  for (Slot& s : slots_) s.value.store(0, std::memory_order_relaxed);
}

HistogramSpec HistogramSpec::exponential(double lo, double hi,
                                         double factor) {
  SYNCON_REQUIRE(lo > 0.0 && hi >= lo, "bounds must satisfy 0 < lo <= hi");
  SYNCON_REQUIRE(factor > 1.0, "exponential buckets need factor > 1");
  HistogramSpec spec;
  for (double b = lo; true; b *= factor) {
    spec.bounds.push_back(b);
    if (b >= hi) break;
  }
  return spec;
}

HistogramSpec HistogramSpec::linear(double lo, double step, std::size_t n) {
  SYNCON_REQUIRE(step > 0.0, "linear buckets need step > 0");
  SYNCON_REQUIRE(n > 0, "need at least one bucket bound");
  HistogramSpec spec;
  spec.bounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    spec.bounds.push_back(lo + step * static_cast<double>(i));
  }
  return spec;
}

Histogram::Histogram(HistogramSpec spec) : spec_(std::move(spec)) {
  SYNCON_REQUIRE(!spec_.bounds.empty(), "histogram needs bucket bounds");
  SYNCON_REQUIRE(
      std::is_sorted(spec_.bounds.begin(), spec_.bounds.end()) &&
          std::adjacent_find(spec_.bounds.begin(), spec_.bounds.end()) ==
              spec_.bounds.end(),
      "histogram bounds must be strictly ascending");
  shards_.reserve(kMetricShards);
  for (std::size_t s = 0; s < kMetricShards; ++s) {
    shards_.push_back(std::make_unique<Shard>(spec_.bounds.size() + 1));
  }
}

void Histogram::record(double value, std::size_t shard) {
  Shard& s = *shards_[shard % kMetricShards];
  // First bucket whose bound is >= value (`le` semantics); past the last
  // bound the sample lands in the +Inf overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(spec_.bounds.begin(), spec_.bounds.end(), value) -
      spec_.bounds.begin());
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  double seen = s.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !s.min.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
  seen = s.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !s.max.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = spec_.bounds;
  snap.counts.assign(spec_.bounds.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {  // shard order: deterministic sum
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    min = std::min(min, shard->min.load(std::memory_order_relaxed));
    max = std::max(max, shard->max.load(std::memory_order_relaxed));
  }
  snap.min = snap.count == 0 ? 0.0 : min;
  snap.max = snap.count == 0 ? 0.0 : max;
  return snap;
}

void Histogram::reset() {
  for (const auto& shard : shards_) {
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
    shard->min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    shard->max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile(double q) const {
  SYNCON_REQUIRE(count > 0, "quantile of empty histogram");
  SYNCON_REQUIRE(q >= 0.0 && q <= 1.0, "quantile requires q in [0, 1]");
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= rank) {
      double lower = b == 0 ? min : std::max(min, bounds[b - 1]);
      double upper = b == bounds.size() ? max : std::min(max, bounds[b]);
      if (b == bounds.size() && max < lower) {
        // Overflow bucket of a snapshot whose min/max were never tracked
        // (hand-assembled or merged from bucket counts alone): anchor the
        // open-ended bucket at its lower bound instead of interpolating
        // toward a stale max below it.
        upper = lower;
      }
      // Degenerate snapshots (again: hand-assembled) can present
      // upper < lower; interpolation must never run backwards.
      upper = std::max(upper, lower);
      const double frac =
          (rank - before) / static_cast<double>(counts[b]);
      const double value = lower + frac * (upper - lower);
      // Clamp to the observed [min, max] only when that range is coherent
      // with the bucket the rank landed in; a stale range must not squash
      // the interpolated value back below the bucket.
      return min <= max && max >= lower ? std::clamp(value, min, max) : value;
    }
  }
  return max;
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const Entry* e = find(name);
  SYNCON_REQUIRE(e != nullptr && e->kind == Kind::Counter,
                 "no counter named '" + std::string(name) + "'");
  return e->counter_value;
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

Counter& MetricRegistry::counter(std::string_view name) {
  SYNCON_REQUIRE(!name.empty(), "metrics need a name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  SYNCON_REQUIRE(!name.empty(), "metrics need a name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

void MetricRegistry::remove_gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_.erase(std::string(name));
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     const HistogramSpec& spec) {
  SYNCON_REQUIRE(!name.empty(), "metrics need a name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(spec))
             .first;
  } else {
    SYNCON_REQUIRE(it->second->spec() == spec,
                   "histogram '" + std::string(name) +
                       "' re-registered with a different bucket layout");
  }
  return *it->second;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.entries.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  // The three maps are each name-sorted; a final sort merges them.
  for (const auto& [name, c] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Counter;
    e.counter_value = c->total();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Gauge;
    e.gauge_value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Histogram;
    e.histogram = h->snapshot();
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace syncon::obs
