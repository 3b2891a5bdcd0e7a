// offline_trace: the trace_analysis path through SyncMonitor — stamp in the
// constructor, register the intervals, sweep every ordered pair exhaustively
// and lattice-pruned, then find_pairs on one compound condition. It is the
// only workload where model and relations do most of the work; the service
// workloads bypass both.
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "monitor/monitor.hpp"
#include "monitor/predicate.hpp"
#include "sim/interval_picker.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"

namespace bench_e2e {
namespace {

using namespace syncon;

/// The condition find_pairs evaluates: universal and existential relations
/// over both proxies, with a negation.
constexpr const char* kCondition = "R1(U,L) | (R2'(L,U) & !R4(U,U))";

/// (pair, relation) facts of the exhaustive sweep re-checked per job
/// against the naive proxy quantification.
constexpr std::size_t kNaiveSamples = 256;

struct Size {
  std::size_t processes;
  std::size_t events_per_process;
  std::size_t intervals;
  std::size_t interval_nodes;
};

unsigned relation_bit(const RelationId& id) {
  return static_cast<unsigned>(id.relation) * 4 +
         static_cast<unsigned>(id.proxy_x) * 2 +
         static_cast<unsigned>(id.proxy_y);
}

std::uint32_t mask_of(const std::vector<RelationId>& holding) {
  std::uint32_t mask = 0;
  for (const RelationId& id : holding) mask |= 1u << relation_bit(id);
  return mask;
}

class OfflineTrace final : public Workload {
 public:
  explicit OfflineTrace(const Options& options)
      : seed_(options.seed),
        size_(options.tiny() ? Size{16, 20, 24, 4} : Size{256, 200, 192, 12}) {}

  void setup() override {
    prepare();
    intervals_.clear();  // they point into the execution being replaced
    WorkloadConfig config;
    config.process_count = size_.processes;
    config.events_per_process = size_.events_per_process;
    config.topology = Topology::Random;
    config.seed = seed_;
    exec_ = std::make_shared<const Execution>(generate_execution(config));
    Xoshiro256StarStar rng(seed_ ^ 0x696e74657276616cull);
    IntervalSpec spec;
    spec.node_count = size_.interval_nodes;
    spec.max_events_per_node = 3;
    intervals_ = random_intervals(*exec_, rng, spec, size_.intervals);
    condition_.emplace(SyncCondition::parse(kCondition));
  }

  void prepare() override {
    monitor_.reset();
    exhaustive_ = {};
    pruned_ = {};
    matched_.clear();
  }

  void execute(Mode mode) override {
    SpanLog* log = nullptr;
    if (mode == Mode::kTraced) {
      spans_.clear();
      log = &spans_;
    }
    ScopedSpan job(log, "job");
    const std::uint64_t before_stamp = thread_allocations();
    {
      ScopedSpan span(log, "model.stamp");
      monitor_ = std::make_unique<SyncMonitor>(exec_);
    }
    const std::uint64_t before_register = thread_allocations();
    {
      ScopedSpan span(log, "nonatomic.register");
      for (const NonatomicEvent& interval : intervals_) {
        monitor_->add_interval(interval);
      }
    }
    const std::uint64_t before_sweeps = thread_allocations();
    {
      ScopedSpan span(log, "relations.exhaustive");
      exhaustive_ = monitor_->relations_all_pairs(false);
    }
    {
      ScopedSpan span(log, "relations.pruned");
      pruned_ = monitor_->relations_all_pairs(true);
    }
    const std::uint64_t after_sweeps = thread_allocations();
    {
      ScopedSpan span(log, "monitor.find_pairs");
      QueryCost cost;
      matched_ = monitor_->find_pairs(*condition_, &cost);
    }
    stamp_allocs_ = before_register - before_stamp;
    register_allocs_ = before_sweeps - before_register;
    sweep_allocs_ = after_sweeps - before_sweeps;
  }

  void verify(Gates& gates) override {
    const std::size_t n = intervals_.size();
    const std::size_t pairs = n * (n - 1);
    if (exhaustive_.pairs.size() != pairs || pruned_.pairs.size() != pairs) {
      gates.add(1, 1, "offline: a sweep did not cover every ordered pair");
      return;
    }
    std::uint64_t differ = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto& e = exhaustive_.pairs[i];
      const auto& p = pruned_.pairs[i];
      if (e.x != p.x || e.y != p.y ||
          mask_of(e.relations.holding) != mask_of(p.relations.holding)) {
        ++differ;
      }
    }
    gates.add(pairs, differ, "offline: pruned holding set != exhaustive");

    Xoshiro256StarStar rng(seed_ ^ 0x6e61697665ull);
    const auto ids = all_relation_ids();
    std::uint64_t wrong = 0;
    for (std::size_t k = 0; k < kNaiveSamples; ++k) {
      const auto& pair = exhaustive_.pairs[rng.below(pairs)];
      const RelationId& id = ids[rng.below(ids.size())];
      const bool fast =
          ((mask_of(pair.relations.holding) >> relation_bit(id)) & 1u) != 0;
      if (fast != monitor_->evaluator().holds_naive(id, pair.x, pair.y,
                                                     Semantics::Weak)) {
        ++wrong;
      }
    }
    gates.add(kNaiveSamples, wrong, "offline: holds_naive disagrees");

    if (!expected_matches_) expected_matches_ = matched_.size();
    gates.add(1, matched_.size() != *expected_matches_ ? 1 : 0,
              "offline: find_pairs changed between jobs");
  }

  void after_traced(Gates&) override {
    const double events = static_cast<double>(exec_->total_real_count());
    const double n = static_cast<double>(intervals_.size());
    const double pairs = static_cast<double>(exhaustive_.pairs.size());
    const auto ns_per = [&](const char* span, double count) {
      return 1e9 * ratio(spans_.total_seconds(span), count);
    };
    samples_.add("model.stamp_ns_per_event", ns_per("model.stamp", events));
    samples_.add("model.stamp_allocs_per_event",
                 ratio(static_cast<double>(stamp_allocs_), events));
    samples_.add("nonatomic.register_us_per_interval",
                 1e-3 * ns_per("nonatomic.register", n));
    samples_.add("nonatomic.register_allocs_per_interval",
                 ratio(static_cast<double>(register_allocs_), n));
    samples_.add("relations.exhaustive_ns_per_pair",
                 ns_per("relations.exhaustive", pairs));
    samples_.add("relations.pruned_ns_per_pair",
                 ns_per("relations.pruned", pairs));
    samples_.add(
        "relations.comparisons_per_pair",
        ratio(static_cast<double>(exhaustive_.cost.integer_comparisons),
              pairs));
    samples_.add(
        "relations.pruned_comparisons_per_pair",
        ratio(static_cast<double>(pruned_.cost.integer_comparisons), pairs));
    samples_.add("relations.pruned_evaluated_frac",
                 ratio(static_cast<double>(pruned_.evaluated_total()),
                       32.0 * pairs));
    samples_.add("relations.allocs_per_pair",
                 ratio(static_cast<double>(sweep_allocs_), 2.0 * pairs));
    samples_.add("monitor.find_pairs_ns_per_pair",
                 ns_per("monitor.find_pairs", pairs));
    samples_.add("bench.span_coverage_frac", span_coverage(spans_));
  }

  LayerValues layer_metrics(double) override { return samples_.medians(); }

 private:
  std::uint64_t seed_;
  Size size_;
  std::shared_ptr<const Execution> exec_;
  std::vector<NonatomicEvent> intervals_;
  std::optional<SyncCondition> condition_;
  std::unique_ptr<SyncMonitor> monitor_;
  BatchEvaluator::Result exhaustive_;
  BatchEvaluator::Result pruned_;
  std::vector<std::pair<SyncMonitor::Handle, SyncMonitor::Handle>> matched_;
  std::optional<std::size_t> expected_matches_;
  std::uint64_t stamp_allocs_ = 0;
  std::uint64_t register_allocs_ = 0;
  std::uint64_t sweep_allocs_ = 0;
  SpanLog spans_;
  LayerSamples samples_;
};

}  // namespace

std::unique_ptr<Workload> make_offline_trace(const Options& options) {
  return std::make_unique<OfflineTrace>(options);
}

}  // namespace bench_e2e
