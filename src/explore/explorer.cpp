#include "explore/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace syncon::explore {

namespace {

constexpr std::uint32_t kNone = ScheduleState::kUnbound;

obs::Histogram& check_latency_histogram() {
  static obs::Histogram& h = obs::MetricRegistry::global().histogram(
      "syncon_explore_check_latency_us",
      obs::HistogramSpec::exponential(1.0, 1 << 22));
  return h;
}

struct Ctx {
  Ctx(const Universe& universe, const ExploreOptions& options,
      const ScheduleCallback& callback)
      : u(universe), opt(options), cb(callback) {}

  const Universe& u;
  const ExploreOptions& opt;
  const ScheduleCallback& cb;

  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> traces{0};
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<std::uint64_t> dead_ends{0};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<bool> stopped_by_callback{false};
  std::atomic<bool> stop{false};
};

/// Counts one complete schedule against max_schedules. False once the
/// budget is spent: a parallel worker that raced past the last slot drops
/// its schedule, so exactly max_schedules are executed.
bool admit(Ctx& c) {
  const std::uint64_t n = c.executed.fetch_add(1) + 1;
  const std::uint64_t cap = c.opt.max_schedules;
  if (cap == 0 || n < cap) return true;
  if (n > cap) {
    c.executed.fetch_sub(1);
    return false;
  }
  c.budget_exhausted.store(true);
  c.stop.store(true);
  return true;
}

void visit(Ctx& c, const Schedule& s) {
  c.traces.fetch_add(1);
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_us() : 0;
  const bool keep_going = c.cb(s);
  if (timed) {
    check_latency_histogram().record(
        static_cast<double>(obs::now_us() - t0));
  }
  if (!keep_going) {
    c.stopped_by_callback.store(true);
    c.stop.store(true);
  }
}

// --- the reduced mode: acyclic bindings ------------------------------------

/// A partial binding: the first `depth` messages of the walk order are
/// bound.
struct Partial {
  std::vector<std::uint32_t> binding;            // message -> recv op on dst
  std::vector<std::vector<std::uint32_t>> left;  // arity left per op
  std::size_t depth = 0;
};

bool identical(const UniverseMessage& a, const UniverseMessage& b) {
  return a.src == b.src && a.src_op == b.src_op && a.dst == b.dst;
}

/// Depth-first over partial bindings; parallel mode splits the tree at a
/// breadth-first frontier.
struct Bindings {
  explicit Bindings(Ctx& ctx) : c(ctx), order(ctx.u.messages.size()) {
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       const UniverseMessage& x = c.u.messages[a];
                       const UniverseMessage& y = c.u.messages[b];
                       return std::tie(x.dst, x.src, x.src_op) <
                              std::tie(y.dst, y.src, y.src_op);
                     });
  }

  Partial root() const {
    Partial st{std::vector<std::uint32_t>(c.u.messages.size(), kNone), {}, 0};
    for (const auto& script : c.u.ops) {
      std::vector<std::uint32_t>& left = st.left.emplace_back();
      for (const UniverseOp& op : script) left.push_back(op.recv_arity);
    }
    return st;
  }

  /// True when event (p, op + 1) reaches event (q, target + 1) through
  /// program order and the messages bound so far. What an event reaches is,
  /// on every process, a suffix of its ops: `low` tracks where each suffix
  /// starts, `scanned` how far its sends have been followed.
  bool reaches(const Partial& st, ProcessId p, std::uint32_t op, ProcessId q,
               std::uint32_t target) const {
    std::vector<std::uint32_t> low(c.u.process_count(), kNone);
    std::vector<std::uint32_t> scanned;
    for (const auto& script : c.u.ops) {
      scanned.push_back(static_cast<std::uint32_t>(script.size()));
    }
    std::vector<ProcessId> work{p};
    low[p] = op;
    while (!work.empty()) {
      const ProcessId r = work.back();
      work.pop_back();
      if (r == q && low[q] <= target) return true;
      for (std::uint32_t k = low[r]; k < scanned[r]; ++k) {
        for (const std::uint32_t id : c.u.ops[r][k].sends) {
          const std::uint32_t b = st.binding[id];
          const ProcessId d = c.u.messages[id].dst;
          if (b != kNone && b < low[d]) {
            low[d] = b;
            work.push_back(d);
          }
        }
      }
      scanned[r] = std::min(scanned[r], low[r]);
    }
    return false;
  }

  /// The receive ops the next message may take, in program order. Counts
  /// the choices rejected for closing a cycle and, when none is left, the
  /// dead end.
  std::vector<std::uint32_t> choices(const Partial& st) {
    const UniverseMessage& m = c.u.messages[order[st.depth]];
    // Identical messages are adjacent in the order and take non-decreasing
    // ops, so each multiset binding appears once.
    std::uint32_t first = 0;
    if (st.depth > 0 && identical(c.u.messages[order[st.depth - 1]], m)) {
      first = st.binding[order[st.depth - 1]];
    }
    std::vector<std::uint32_t> out;
    // The ops that reach the source are a prefix of the destination's
    // program order: once one does not, no later op does.
    bool cyclic = true;
    for (std::uint32_t op = first; op < st.left[m.dst].size(); ++op) {
      if (st.left[m.dst][op] == 0) continue;  // not a receive, or full
      cyclic = cyclic && reaches(st, m.dst, op, m.src, m.src_op);
      if (cyclic) {
        c.pruned.fetch_add(1);
      } else {
        out.push_back(op);
      }
    }
    if (out.empty()) c.dead_ends.fetch_add(1);
    return out;
  }

  void bind(Partial& st, std::uint32_t op) const {
    const std::uint32_t id = order[st.depth++];
    st.binding[id] = op;
    --st.left[c.u.messages[id].dst][op];
  }

  void unbind(Partial& st) const {
    const std::uint32_t id = order[--st.depth];
    ++st.left[c.u.messages[id].dst][st.binding[id]];
    st.binding[id] = kNone;
  }

  void walk(Partial& st) {
    if (c.stop.load(std::memory_order_relaxed)) return;
    if (st.depth == order.size()) {
      if (admit(c)) visit(c, {linearize(c.u, st.binding), st.binding});
      return;
    }
    for (const std::uint32_t op : choices(st)) {
      bind(st, op);
      walk(st);
      unbind(st);
      if (c.stop.load(std::memory_order_relaxed)) return;
    }
  }

  void run() {
    if (!c.opt.parallel) {
      Partial st = root();
      walk(st);
      return;
    }
    // Breadth-first to a frontier wide enough to feed every worker, then
    // depth-first per frontier node. The tree is a property of the
    // universe, so the visited set and the counters do not depend on the
    // split.
    ThreadPool& pool = ThreadPool::shared();
    const std::size_t target =
        4 * std::max<std::size_t>(1, pool.thread_count());
    std::vector<Partial> frontier{root()};
    while (!frontier.empty() && frontier.size() < target &&
           frontier.front().depth < order.size()) {
      std::vector<Partial> next;
      for (const Partial& node : frontier) {
        for (const std::uint32_t op : choices(node)) {
          bind(next.emplace_back(node), op);
        }
      }
      frontier = std::move(next);
    }
    pool.parallel_for(frontier.size(),
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          walk(frontier[i]);
                        }
                      });
  }

  Ctx& c;
  std::vector<std::uint32_t> order;  // messages by (dst, src, src_op, id)
};

// --- the naive mode: every interleaving ------------------------------------

/// Every valid interleaving, depth-first and serially (this mode exists to
/// count); the first word of each trace key reaches the callback.
struct Naive {
  Ctx& c;
  std::set<TraceKey> visited;
  std::vector<Step> word;

  void walk(const ScheduleState& st) {
    if (c.stop.load(std::memory_order_relaxed)) return;
    if (st.complete(c.u)) {
      if (!admit(c)) return;
      Schedule s{word, st.binding};
      if (visited.insert(trace_key(c.u, s)).second) visit(c, s);
      return;
    }
    const std::vector<Step> enabled = st.enabled_steps(c.u);
    if (enabled.empty()) c.dead_ends.fetch_add(1);
    for (const Step e : enabled) {
      ScheduleState child = st;
      child.apply(c.u, e);
      word.push_back(e);
      walk(child);
      word.pop_back();
      if (c.stop.load(std::memory_order_relaxed)) return;
    }
  }
};

}  // namespace

ExploreStats explore(const Universe& u, const ExploreOptions& options,
                     const ScheduleCallback& on_schedule) {
  Ctx c{u, options, on_schedule};
  if (options.dpor) {
    Bindings(c).run();
  } else {
    Naive naive{c, {}, {}};
    naive.word.reserve(u.total_steps());
    naive.walk(ScheduleState(u));
  }

  ExploreStats stats;
  stats.schedules_executed = c.executed.load();
  stats.traces_visited = c.traces.load();
  stats.duplicate_traces = stats.schedules_executed - stats.traces_visited;
  stats.prefixes_pruned = c.pruned.load();
  stats.dead_ends = c.dead_ends.load();
  stats.budget_exhausted = c.budget_exhausted.load();
  stats.stopped_by_callback = c.stopped_by_callback.load();
  if (obs::enabled()) {
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    registry.counter("syncon_explore_schedules_visited_total")
        .add(stats.schedules_executed);
    registry.counter("syncon_explore_prefixes_pruned_total")
        .add(stats.prefixes_pruned);
    registry.counter("syncon_explore_traces_deduped_total")
        .add(stats.duplicate_traces);
    registry.counter("syncon_explore_dead_ends_total").add(stats.dead_ends);
  }
  return stats;
}

}  // namespace syncon::explore
