#include "check/properties.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "check/generators.hpp"
#include "explore/explorer.hpp"
#include "explore/invariants.hpp"
#include "model/reachability.hpp"
#include "monitor/predicate.hpp"
#include "online/online_system.hpp"
#include "relations/batch.hpp"
#include "relations/evaluator.hpp"
#include "service/daemon.hpp"
#include "sim/interval_picker.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace syncon::check {

namespace {

PropertyResult pass() { return {}; }

PropertyResult fail(std::string message) {
  return {false, std::move(message)};
}

/// Everything a relation-level property needs, built once per case. The
/// MaterializedCase keeps the Execution alive; Timestamps and the evaluator
/// reference it.
struct Instance {
  MaterializedCase m;
  Timestamps ts;
  RelationEvaluator eval;
  EventHandle hx, hy;

  explicit Instance(MaterializedCase mm)
      : m(std::move(mm)), ts(*m.exec), eval(ts) {
    hx = eval.add_event(m.x);
    hy = eval.add_event(m.y);
  }
};

std::unique_ptr<Instance> instantiate(const CheckCase& c) {
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return nullptr;
  return std::make_unique<Instance>(std::move(*m));
}

/// Universes small enough for the Θ(|E|²)-bit BFS-closure oracle.
bool oracle_sized(const Execution& exec) {
  return exec.total_real_count() <= 120;
}

/// The 64 verdicts (32 relations × both argument orders) of one instance —
/// the invariant payload of the metamorphic properties.
std::vector<bool> all_verdicts(const Instance& in) {
  std::vector<bool> v;
  v.reserve(64);
  for (const RelationId& id : all_relation_ids()) {
    v.push_back(in.eval.holds(id, in.hx, in.hy));
    v.push_back(in.eval.holds(id, in.hy, in.hx));
  }
  return v;
}

// ---------------------------------------------------------------------------
// fast_vs_naive / strict_vs_naive
// ---------------------------------------------------------------------------

PropertyResult differential_relations(const CheckCase& c, Semantics sem) {
  const std::unique_ptr<Instance> in = instantiate(c);
  if (!in) return fail("case failed to materialize");
  std::optional<ReachabilityOracle> oracle;
  if (oracle_sized(*in->m.exec)) oracle.emplace(*in->m.exec);

  const std::array<std::pair<EventHandle, EventHandle>, 2> orders{
      {{in->hx, in->hy}, {in->hy, in->hx}}};
  for (const RelationId& id : all_relation_ids()) {
    for (std::size_t o = 0; o < orders.size(); ++o) {
      const auto [a, b] = orders[o];
      QueryCost cost;
      const bool fast = sem == Semantics::Weak
                            ? in->eval.holds(id, a, b, &cost)
                            : in->eval.holds_strict(id, a, b, &cost);
      const bool naive = in->eval.holds_naive(id, a, b, sem);
      const std::string order = o == 0 ? "(X,Y)" : "(Y,X)";
      if (fast != naive) {
        return fail(to_string(id) + order + ": fast=" +
                    (fast ? "true" : "false") + " naive=" +
                    (naive ? "true" : "false"));
      }
      const NonatomicEvent& px = in->eval.proxy(a, id.proxy_x);
      const NonatomicEvent& py = in->eval.proxy(b, id.proxy_y);
      if (sem == Semantics::Weak) {
        // Theorem 20: the fast path must stay within its comparison budget.
        const std::uint64_t bound =
            theorem20_bound(id.relation, px.node_count(), py.node_count());
        if (cost.integer_comparisons > bound) {
          return fail(to_string(id) + order + ": cost " +
                      std::to_string(cost.integer_comparisons) +
                      " exceeds Theorem 20 bound " + std::to_string(bound));
        }
      }
      if (oracle) {
        const bool ground =
            evaluate_oracle(id.relation, px, py, *oracle, sem);
        if (ground != fast) {
          return fail(to_string(id) + order + ": fast=" +
                      (fast ? "true" : "false") + " but BFS oracle=" +
                      (ground ? "true" : "false"));
        }
      }
    }
  }
  return pass();
}

PropertyResult fast_vs_naive(const CheckCase& c) {
  return differential_relations(c, Semantics::Weak);
}

PropertyResult strict_vs_naive(const CheckCase& c) {
  return differential_relations(c, Semantics::Strict);
}

// ---------------------------------------------------------------------------
// timestamp_ll_forms
// ---------------------------------------------------------------------------

PropertyResult timestamp_ll_forms(const CheckCase& c) {
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return fail("case failed to materialize");
  const Execution& exec = *m->exec;
  const Timestamps ts(exec);
  const EventCuts cx(ts, m->x);
  const EventCuts cy(ts, m->y);

  constexpr std::array<PosetCut, 4> kAllCuts = {
      PosetCut::IntersectPast, PosetCut::UnionPast, PosetCut::IntersectFuture,
      PosetCut::UnionFuture};
  std::vector<Cut> every;
  std::vector<Cut> down_style;  // the cuts the theory applies << to as C
  for (const EventCuts* ec : {&cx, &cy}) {
    for (const PosetCut which : kAllCuts) every.push_back(ec->cut(which));
    down_style.push_back(ec->cut(PosetCut::IntersectPast));
    down_style.push_back(ec->cut(PosetCut::UnionPast));
  }

  // Theorem 19's canonical counts form vs the four definitional forms
  // (Defn 7.1–7.4) on every applicable pair.
  for (const Cut& cdown : down_style) {
    for (const Cut& cp : every) {
      const bool canon = ll(cdown, cp);
      if (canon != ll_form1(cdown, cp)) return fail("ll vs Defn 7.1");
      if (canon != !not_ll_form2(cdown, cp)) return fail("ll vs Defn 7.2");
      if (canon != ll_form3(cdown, cp)) return fail("ll vs Defn 7.3");
      if (canon != !not_ll_form4(cdown, cp)) return fail("ll vs Defn 7.4");
    }
  }

  // Theorem 19 probes on the sound probe sides (DESIGN.md §3.3b): the
  // R2'-shaped test probes N_Y, the R3-shaped test probes N_X, the
  // R4-shaped test may probe either side.
  struct Probe {
    const char* label;
    const VectorClock* down;
    const VectorClock* up;
    const std::vector<ProcessId>* nodes;
  };
  const std::array<Probe, 4> probes{{
      {"R2'-shape@N_Y", &cy.union_past(), &cx.union_future(),
       &m->y.node_set()},
      {"R3-shape@N_X", &cy.intersect_past(), &cx.intersect_future(),
       &m->x.node_set()},
      {"R4-shape@N_X", &cy.union_past(), &cx.intersect_future(),
       &m->x.node_set()},
      {"R4-shape@N_Y", &cy.union_past(), &cx.intersect_future(),
       &m->y.node_set()},
  }};
  for (const Probe& probe : probes) {
    const bool expected =
        !ll(Cut(exec, *probe.down), Cut(exec, *probe.up));
    ComparisonCounter counter;
    const bool probed =
        theorem19_violated(*probe.down, *probe.up, *probe.nodes, counter);
    if (probed != expected) {
      return fail(std::string(probe.label) + ": probe=" +
                  (probed ? "violated" : "ok") + " full-scan=" +
                  (expected ? "violated" : "ok"));
    }
    if (counter.integer_comparisons > probe.nodes->size()) {
      return fail(std::string(probe.label) + ": " +
                  std::to_string(counter.integer_comparisons) +
                  " comparisons for " + std::to_string(probe.nodes->size()) +
                  " probe nodes");
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// batch_parallel_identity
// ---------------------------------------------------------------------------

PropertyResult batch_parallel_identity(const CheckCase& c) {
  const std::unique_ptr<Instance> in = instantiate(c);
  if (!in) return fail("case failed to materialize");
  // Widen the universe a little so the sweep has real fan-out; the extra
  // intervals are a pure function of the case (fingerprint-seeded).
  Xoshiro256StarStar rng(fingerprint(c));
  IntervalSpec spec;
  spec.node_count = 2;
  spec.max_events_per_node = 3;
  for (NonatomicEvent& extra :
       random_intervals(*in->m.exec, rng, spec, 6)) {
    in->eval.add_event(std::move(extra));
  }

  ThreadPool pool(4);
  const BatchEvaluator serial(in->eval, nullptr);
  const BatchEvaluator parallel(in->eval, &pool);
  for (const bool pruned : {true, false}) {
    const BatchEvaluator::Result a = serial.all_pairs(pruned);
    const BatchEvaluator::Result b = parallel.all_pairs(pruned);
    const std::string which = pruned ? "pruned" : "unpruned";
    if (a.pairs.size() != b.pairs.size()) {
      return fail(which + ": pair counts differ");
    }
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
      const auto& pa = a.pairs[i];
      const auto& pb = b.pairs[i];
      if (pa.x != pb.x || pa.y != pb.y) {
        return fail(which + ": pair " + std::to_string(i) + " reordered");
      }
      if (pa.relations.holding != pb.relations.holding) {
        return fail(which + ": pair " + std::to_string(i) +
                    " holding sets differ");
      }
      if (pa.relations.evaluated != pb.relations.evaluated) {
        return fail(which + ": pair " + std::to_string(i) +
                    " evaluation counts differ");
      }
      if (!(pa.relations.cost == pb.relations.cost)) {
        return fail(which + ": pair " + std::to_string(i) +
                    " per-pair costs differ");
      }
    }
    if (!(a.cost == b.cost)) {
      return fail(which + ": merged cost totals differ");
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// monitor_faulty_vs_clean / monitor_compaction_identity
// ---------------------------------------------------------------------------

/// The online monitor oracle of explore/invariants on the case's own
/// execution, fed in its topological order. Shared events go to X and Y
/// keeps the rest; an empty remainder makes the property vacuous (the
/// monitor forbids two actions claiming one event).
PropertyResult monitor_oracle(const CheckCase& c, bool compacted) {
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return fail("case failed to materialize");
  const explore::MonitorActions actions = explore::split_actions(m->x, m->y);
  if (actions.y.empty()) return pass();
  OnlineSystem sys = replay(*m->exec);
  const std::uint64_t fng = fingerprint(c);
  explore::MonitorPlan plan;
  if (compacted) {
    plan.compaction =
        explore::seeded_feed(fng ^ 0xda3e39cb94b95bdbULL, fng ^ 1);
  } else {
    plan.lossy = explore::seeded_feed(fng ^ 0x9e3779b97f4a7c15ULL, fng);
  }
  std::string violation = explore::monitor_differential(
      sys, explore::reports_of(sys, m->exec->topological_order()), actions,
      plan);
  return violation.empty() ? pass() : fail(std::move(violation));
}

PropertyResult monitor_faulty_vs_clean(const CheckCase& c) {
  return monitor_oracle(c, false);
}

PropertyResult monitor_compaction_identity(const CheckCase& c) {
  return monitor_oracle(c, true);
}

// ---------------------------------------------------------------------------
// recovery_identity
// ---------------------------------------------------------------------------

PropertyResult recovery_identity(const CheckCase& c) {
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return fail("case failed to materialize");
  const Execution& exec = *m->exec;
  const std::uint64_t fng = fingerprint(c);
  Xoshiro256StarStar rng(fng ^ 0xc2b2ae3d27d4eb4fULL);
  const DurabilityPolicy policy = draw_durability_policy(rng);
  SimFaultConfig faults;
  faults.torn_tail = 0.5;
  faults.bit_flip = 0.05;
  faults.seed = fng;

  const std::size_t events = exec.topological_order().size();
  if (events == 0) return pass();
  // Every event journals at least one storage op, so the crash always fires.
  const std::uint64_t crash_after = 1 + rng.below(events);
  const CrashLegResult system =
      crash_durable_system(exec, faults, policy, crash_after, 3 + rng.below(6));
  if (!system.violation.empty()) return fail(system.violation);
  if (!system.crashed) return fail("seeded crash point never reached");

  const explore::MonitorActions actions = explore::split_actions(m->x, m->y);
  if (actions.y.empty()) return pass();  // see monitor_oracle
  SimFaultConfig monitor_faults = faults;
  monitor_faults.seed = fng ^ 0x5bf0363577e53b95ULL;
  const CrashLegResult monitor = crash_hosted_monitor(
      replay(exec), exec.topological_order(), actions,
      explore::seeded_feed(fng ^ 0x9e3779b97f4a7c15ULL, fng ^ 2),
      monitor_faults, rng);
  if (!monitor.violation.empty()) return fail(monitor.violation);
  if (!monitor.crashed) return fail("seeded monitor crash point never reached");
  return pass();
}

// ---------------------------------------------------------------------------
// metamorphic_redundant_message
// ---------------------------------------------------------------------------

PropertyResult metamorphic_redundant_message(const CheckCase& c) {
  const std::unique_ptr<Instance> base = instantiate(c);
  if (!base) return fail("case failed to materialize");

  // First causally ordered cross-process pair (in id order) not already a
  // message edge: a new e→f message is redundant by construction.
  std::optional<Message> redundant;
  const std::set<Message, decltype([](const Message& a, const Message& b) {
    return std::pair(a.source, a.target) < std::pair(b.source, b.target);
  })>
      present(c.messages.begin(), c.messages.end());
  const Execution& exec = *base->m.exec;
  for (ProcessId p = 0; p < exec.process_count() && !redundant; ++p) {
    for (EventIndex i = 1; i <= exec.real_count(p) && !redundant; ++i) {
      for (ProcessId q = 0; q < exec.process_count() && !redundant; ++q) {
        if (q == p) continue;
        for (EventIndex j = 1; j <= exec.real_count(q); ++j) {
          const Message cand{EventId{p, i}, EventId{q, j}};
          if (base->ts.lt(cand.source, cand.target) &&
              !present.count(cand)) {
            redundant = cand;
            break;
          }
        }
      }
    }
  }
  if (!redundant) return pass();  // no causal cross-process pair to add

  CheckCase augmented = c;
  augmented.messages.push_back(*redundant);
  const std::unique_ptr<Instance> aug = instantiate(augmented);
  if (!aug) {
    return fail("adding redundant message " + to_string(redundant->source) +
                "->" + to_string(redundant->target) +
                " broke materialization");
  }
  if (all_verdicts(*base) != all_verdicts(*aug)) {
    return fail("redundant message " + to_string(redundant->source) + "->" +
                to_string(redundant->target) + " changed a verdict");
  }
  return pass();
}

// ---------------------------------------------------------------------------
// metamorphic_relabel
// ---------------------------------------------------------------------------

PropertyResult metamorphic_relabel(const CheckCase& c) {
  const std::unique_ptr<Instance> base = instantiate(c);
  if (!base) return fail("case failed to materialize");

  const std::size_t n = c.process_count();
  std::vector<ProcessId> perm(n);
  std::iota(perm.begin(), perm.end(), ProcessId{0});
  Xoshiro256StarStar rng(fingerprint(c));
  for (std::size_t i = n; i-- > 1;) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }

  CheckCase relabeled;
  relabeled.events_per_process.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    relabeled.events_per_process[perm[p]] = c.events_per_process[p];
  }
  const auto remap = [&perm](EventId e) {
    return EventId{perm[e.process], e.index};
  };
  for (const Message& msg : c.messages) {
    relabeled.messages.push_back({remap(msg.source), remap(msg.target)});
  }
  for (const EventId& e : c.x_members) relabeled.x_members.push_back(remap(e));
  for (const EventId& e : c.y_members) relabeled.y_members.push_back(remap(e));

  const std::unique_ptr<Instance> moved = instantiate(relabeled);
  if (!moved) return fail("relabeled case failed to materialize");
  if (all_verdicts(*base) != all_verdicts(*moved)) {
    return fail("process relabeling changed a verdict");
  }
  return pass();
}

// ---------------------------------------------------------------------------
// predicate_roundtrip
// ---------------------------------------------------------------------------

PropertyResult predicate_roundtrip(const CheckCase& c) {
  const std::unique_ptr<Instance> in = instantiate(c);
  if (!in) return fail("case failed to materialize");
  Xoshiro256StarStar rng(fingerprint(c));
  const std::array<std::pair<EventHandle, EventHandle>, 2> orders{
      {{in->hx, in->hy}, {in->hy, in->hx}}};
  for (int i = 0; i < 20; ++i) {
    const ConditionCase cc = generate_condition(rng, 3);
    try {
      const SyncCondition parsed = SyncCondition::parse(cc.text);
      const SyncCondition reparsed = SyncCondition::parse(parsed.to_string());
      for (const auto& [a, b] : orders) {
        const bool expected = cc.oracle(in->eval, a, b);
        if (parsed.evaluate(in->eval, a, b) != expected) {
          return fail("parse/evaluate mismatch on: " + cc.text);
        }
        if (reparsed.evaluate(in->eval, a, b) != expected) {
          return fail("to_string round-trip mismatch on: " + cc.text);
        }
      }
    } catch (const ConditionParseError& err) {
      return fail("generated condition failed to parse: " + cc.text + " (" +
                  err.what() + ")");
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// clock_backend_identity
// ---------------------------------------------------------------------------

/// The textbook stamping sweep: one dense clock per event, dummies included,
/// indexed [process][index]. T(e) joins its predecessor's clock (the
/// all-ones floor at index 1) with its sources' clocks and pins the owner to
/// index + 1 (Defn 13); F(e) meets its successor's (the ceiling n_i + 1 for a
/// last event) with its receivers' and pins the owner to index (Defn 14).
/// The naive tier the stored rows are checked against.
struct TextbookStamps {
  std::vector<std::vector<VectorClock>> t, f;

  explicit TextbookStamps(const Execution& exec) {
    const std::size_t n = exec.process_count();
    VectorClock ceiling(n), top_f(n);
    for (ProcessId i = 0; i < n; ++i) {
      ceiling.set(i, exec.real_count(i) + 1);
      top_f.set(i, exec.total_count(i));
    }
    for (ProcessId p = 0; p < n; ++p) {
      const EventIndex top = exec.real_count(p) + 1;
      t.emplace_back(exec.total_count(p), VectorClock(n, 0));
      f.emplace_back(exec.total_count(p), VectorClock(n, 1));
      t[p][0].set(p, 1);  // ⊥_p follows nothing but itself
      f[p][0].set(p, 0);  // ⊥_p precedes all but the other ⊥s
      t[p][top] = ceiling;  // ⊤_p follows all but the other ⊤s
      t[p][top].set(p, top + 1);
      f[p][top] = top_f;  // ⊤_p precedes nothing but itself
      f[p][top].set(p, top);
    }
    std::map<EventId, std::vector<EventId>> receivers;
    for (const Message& m : exec.messages()) {
      receivers[m.source].push_back(m.target);
    }
    const std::vector<EventId>& order = exec.topological_order();
    for (const EventId& e : order) {
      VectorClock c =
          e.index > 1 ? t[e.process][e.index - 1] : VectorClock(n, 1);
      for (const EventId& s : exec.incoming(e)) {
        c.merge_max(t[s.process][s.index]);
      }
      c.set(e.process, e.index + 1);
      t[e.process][e.index] = std::move(c);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const EventId e = *it;
      VectorClock c = e.index < exec.real_count(e.process)
                          ? f[e.process][e.index + 1]
                          : ceiling;
      for (const EventId& r : receivers[e]) {
        c.merge_min(f[r.process][r.index]);
      }
      c.set(e.process, e.index);
      f[e.process][e.index] = std::move(c);
    }
  }
};

PropertyResult clock_backend_identity(const CheckCase& c) {
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return fail("case failed to materialize");
  const Execution& exec = *m->exec;
  const Timestamps ts(exec);
  const TextbookStamps ref(exec);

  // T, F and T^R of every event, dummies included; the stored rows' views
  // of every real event.
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    for (EventIndex k = 0; k < exec.total_count(p); ++k) {
      const EventId e{p, k};
      const VectorClock& t = ref.t[p][k];
      const VectorClock& f = ref.f[p][k];
      VectorClock r(exec.process_count());
      for (ProcessId i = 0; i < r.size(); ++i) {
        r.set(i, exec.total_count(i) - f.at(i));
      }
      if (exec.is_real(e) &&
          (ts.forward_ref(e) != t || ts.future_start_ref(e) != f)) {
        return fail("stored row of " + to_string(e) +
                    " differs from the textbook sweep");
      }
      if (ts.forward(e) != t || ts.future_start(e) != f ||
          ts.reverse(e) != r) {
        return fail("T, F or T^R of " + to_string(e) +
                    " differs from the textbook sweep");
      }
    }
  }

  // leq of real events is the clock order (Defn 13's isomorphism).
  for (const EventId& a : exec.topological_order()) {
    for (const EventId& b : exec.topological_order()) {
      if (ts.leq(a, b) !=
          ref.t[a.process][a.index].leq(ref.t[b.process][b.index])) {
        return fail("leq(" + to_string(a) + ", " + to_string(b) +
                    ") differs from the textbook clock order");
      }
    }
  }

  // C1–C4 of X, Y and their Defn 2 proxies: the folded extreme rows equal
  // the Lemma 16 fold over every member's (now verified) clock.
  for (const NonatomicEvent* v : {&m->x, &m->y}) {
    for (const NonatomicEvent& w : {*v, v->proxy_per_node(ProxyKind::Begin),
                                    v->proxy_per_node(ProxyKind::End)}) {
      const EventCuts cuts(ts, w);
      for (const PosetCut which :
           {PosetCut::IntersectPast, PosetCut::UnionPast,
            PosetCut::IntersectFuture, PosetCut::UnionFuture}) {
        if (cuts.counts(which) != poset_cut_counts_reference(ts, w, which)) {
          return fail(std::string(to_string(which)) +
                      " differs from the Lemma 16 fold");
        }
      }
    }
  }

  // The same intervals registered with a stampless evaluator: the blocks
  // its seal writes by two sweeps equal compute_cut_counts over the
  // (verified) rows, and so does the block of X ∪ Y registered after the
  // seal, which folds from the stamps the evaluator builds.
  RelationEvaluator sealed(exec);
  std::vector<NonatomicEvent> registered;
  for (const NonatomicEvent* v : {&m->x, &m->y}) {
    for (NonatomicEvent w : {*v, v->proxy_per_node(ProxyKind::Begin),
                             v->proxy_per_node(ProxyKind::End)}) {
      registered.push_back(w);
      sealed.add_event(std::move(w));
    }
  }
  sealed.seal();
  std::vector<EventId> both = m->x.events();
  both.insert(both.end(), m->y.events().begin(), m->y.events().end());
  registered.emplace_back(exec, std::move(both));
  sealed.add_event(registered.back());
  const std::size_t width = exec.process_count();
  std::vector<ClockValue> want(4 * width);
  for (std::size_t i = 0; i < registered.size(); ++i) {
    for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
      const auto end = proxy_end(kind);
      compute_cut_counts(ts, registered[i].spans(), end, end,
                         {want.data(), want.data() + width,
                          want.data() + 2 * width, want.data() + 3 * width});
      const CutsView got = sealed.proxy_cuts(sealed.handle_at(i), kind);
      const std::array<std::span<const ClockValue>, 4> cuts{
          got.intersect_past, got.union_past, got.intersect_future,
          got.union_future};
      for (std::size_t k = 0; k < cuts.size(); ++k) {
        if (!std::ranges::equal(cuts[k],
                                std::span(want.data() + k * width, width))) {
          return fail(std::string(to_string(static_cast<PosetCut>(k))) +
                      " of the " + to_string(kind) + " proxy of interval " +
                      std::to_string(i) + (i + 1 == registered.size()
                                               ? " (registered after the seal)"
                                               : " (sealed)") +
                      " differs from the fold");
        }
      }
    }
  }
  return pass();
}

// ---------------------------------------------------------------------------
// schedule_invariance
// ---------------------------------------------------------------------------

PropertyResult schedule_invariance(const CheckCase& c) {
  // Exhaustive enumeration only pays on small universes; larger cases pass
  // vacuously — the sampled properties cover them, and the explorer CLI
  // exists for bigger budgets.
  const ScheduleInvarianceConfig& cfg = schedule_invariance_config();
  if (c.process_count() > cfg.max_processes ||
      c.messages.size() > cfg.max_messages ||
      c.total_events() > cfg.max_events) {
    return pass();
  }
  std::optional<MaterializedCase> m = materialize(c);
  if (!m) return fail("case failed to materialize");
  const explore::Universe u = explore::universe_from_execution(*m->exec);

  explore::InvariantOptions inv;
  inv.mask = explore::kInvCore;
  inv.fault_seed = fingerprint(c);
  explore::ExploreOptions opt;
  opt.max_schedules = cfg.max_schedules;

  std::string violation;
  const explore::ExploreStats stats =
      explore::explore(u, opt, [&](const explore::Schedule& s) {
        const explore::ScheduleCheckResult r =
            explore::check_schedule(u, s, c.x_members, c.y_members, inv);
        if (!r.passed) {
          violation = r.message;
          return false;
        }
        return true;
      });
  if (!violation.empty()) {
    return fail("schedule " + std::to_string(stats.traces_visited) +
                " of the universe violates: " + violation);
  }
  return pass();
}

constexpr std::array<PropertyInfo, 12> kProperties{{
    {"fast_vs_naive",
     "Theorem 20 fast conditions vs naive proxy quantification (and the BFS "
     "oracle on small universes) for all 32 relations, with cost bounds",
     &fast_vs_naive},
    {"strict_vs_naive",
     "strict (≺) dispatch vs naive strict semantics for all 32 "
     "relations",
     &strict_vs_naive},
    {"timestamp_ll_forms",
     "canonical << test vs Defn 7.1-7.4 and the Theorem 19 probe on sound "
     "probe sides",
     &timestamp_ll_forms},
    {"batch_parallel_identity",
     "serial vs thread-pool BatchEvaluator sweeps: bit-identical holding "
     "sets and exact cost totals",
     &batch_parallel_identity},
    {"monitor_faulty_vs_clean",
     "online monitor behind a seeded lossy channel + recovery vs a clean "
     "feed: identical Definite verdicts",
     &monitor_faulty_vs_clean},
    {"monitor_compaction_identity",
     "online monitor over a lossy feed with the log compacted at the "
     "watermark pin vs a clean uncompacted run: identical Definite "
     "verdicts, late joiner converges via the checkpoint",
     &monitor_compaction_identity},
    {"metamorphic_redundant_message",
     "adding a causally redundant message changes no verdict",
     &metamorphic_redundant_message},
    {"metamorphic_relabel",
     "relabeling processes preserves all verdicts",
     &metamorphic_relabel},
    {"predicate_roundtrip",
     "random sync-condition ASTs render -> parse -> evaluate identically to "
     "direct AST evaluation",
     &predicate_roundtrip},
    {"clock_backend_identity",
     "row-stamped T, F and T^R of every event, leq of every real pair and "
     "C1-C4 of X, Y and their proxies equal the textbook per-event sweep; "
     "a stampless evaluator's sealed blocks equal the fold",
     &clock_backend_identity},
    {"recovery_identity",
     "crash the durable system and a journaled daemon tenant at a seeded "
     "point under storage faults, recover each from its journal, and "
     "require clocks and all 32 verdicts bit-identical to an uninterrupted "
     "run",
     &recovery_identity},
    {"schedule_invariance",
     "small universes: enumerate every inequivalent delivery schedule "
     "(one per poset) and run the core invariant battery on each — fast vs "
     "naive, schedule-driven online clocks vs offline, monitor vs offline, "
     "verdict stability across linearizations of one trace",
     &schedule_invariance},
}};

}  // namespace

std::span<const PropertyInfo> all_properties() { return kProperties; }

ScheduleInvarianceConfig& schedule_invariance_config() {
  static ScheduleInvarianceConfig config;
  return config;
}

const PropertyInfo* find_property(std::string_view name) {
  for (const PropertyInfo& info : kProperties) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// recovery_identity's crash legs
// ---------------------------------------------------------------------------

DurabilityPolicy draw_durability_policy(Xoshiro256StarStar& rng) {
  DurabilityPolicy policy;
  policy.sync_every = 1 + static_cast<std::uint32_t>(rng.below(4));
  policy.segment_records = 4 + static_cast<std::uint32_t>(rng.below(12));
  policy.full_interval = 1 + static_cast<std::uint32_t>(rng.below(8));
  return policy;
}

CrashLegResult crash_durable_system(const Execution& exec,
                                    const SimFaultConfig& faults,
                                    const DurabilityPolicy& policy,
                                    std::uint64_t crash_after_ops,
                                    std::size_t compact_period) {
  CrashLegResult out;
  const OnlineSystem oracle = replay(exec);
  SimStorage storage(faults);
  auto sys =
      std::make_unique<DurableSystem>(exec.process_count(), storage, policy);
  const std::vector<EventId>& order = exec.topological_order();
  storage.crash_after_ops(crash_after_ops);
  std::size_t i = 0;
  while (i < order.size()) {
    const EventId e = order[i];
    try {
      if (e.index > sys->system().executed(e.process)) {
        const auto incoming = exec.incoming(e);
        if (!incoming.empty()) {
          std::vector<WireMessage> msgs;
          for (const EventId& src : incoming) {
            // A source is never reclaimed before its receive executes (the
            // retention watermark tracks receiver progress), so the live
            // log can always reconstruct the wire.
            msgs.push_back(sys->system().wire_of(src));
          }
          sys->deliver_all(e.process, msgs);
        } else {
          sys->local(e.process);  // a send is a local event plus its wire
        }
      }
      if ((i + 1) % compact_period == 0) {
        sys->compact(sys->system().retention_watermark());
      }
      ++i;
    } catch (const StorageCrash&) {
      if (out.crashed) {
        out.violation = "simulated crash fired twice";
        return out;
      }
      out.crashed = true;
      sys = std::make_unique<DurableSystem>(exec.process_count(), storage,
                                            policy);
      out.recovery = sys->recovery();
      // The crash may have lost an unsynced suffix of journaled events.
      // Rescan from the top: already-recovered events are skipped by the
      // executed() guard, lost ones are re-driven.
      i = 0;
    }
  }

  const OnlineSystem& got = sys->system();
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    bool same = got.executed(p) == oracle.executed(p) &&
                got.current_clock(p) == oracle.current_clock(p);
    for (EventIndex j = got.reclaimed_before(p) + 1;
         same && j <= got.executed(p); ++j) {
      const EventId e{p, j};
      same = got.clock_of(e) == oracle.clock_of(e) &&
             got.time_of(e) == oracle.time_of(e);
    }
    if (!same) {
      out.violation = "process " + std::to_string(p) +
                      ": executed count, clock or time diverged after recovery";
      return out;
    }
  }
  return out;
}

CrashLegResult crash_hosted_monitor(const OnlineSystem& sys,
                                    std::span<const EventId> order,
                                    const explore::MonitorActions& actions,
                                    const explore::LossyFeed& feed,
                                    const SimFaultConfig& faults,
                                    Xoshiro256StarStar& rng) {
  CrashLegResult out;
  const std::size_t n = sys.process_count();
  const std::vector<WireMessage> reports = explore::reports_of(sys, order);

  std::vector<TenantOp> ops;
  const auto push = [&ops](TenantOp::Kind kind,
                           const char* label = "") -> TenantOp& {
    TenantOp& op = ops.emplace_back();
    op.kind = kind;
    op.label = label;
    return op;
  };
  push(TenantOp::Kind::kBegin, "X");
  push(TenantOp::Kind::kBegin, "Y");
  for (const EventId& e : order) {
    const char* label = actions.x.count(e) ? "X" : "";
    if (actions.y.count(e)) label = "Y";
    TenantOp& op = push(TenantOp::Kind::kEvent, label);
    op.message = sys.wire_of(e);
    const std::span<const EventId> sources = sys.sources_of(e);
    op.sources.assign(sources.begin(), sources.end());
    op.time = sys.time_of(e);
  }
  for (const Arrival& a : explore::ship(feed, reports).drain()) {
    push(TenantOp::Kind::kReport).message = a.message;
  }
  push(TenantOp::Kind::kCheckpoint).message.clock = sys.snapshot();
  push(TenantOp::Kind::kComplete, "X");
  push(TenantOp::Kind::kComplete, "Y");
  for (const RelationId& id : all_relation_ids()) {
    TenantOp& op = push(TenantOp::Kind::kWatch, "X");
    op.label2 = "Y";
    op.relation = id;
  }

  // Encoded once: a resubmitted frame is the same bytes, and the daemon
  // skips any copy of a frame the session already applied.
  constexpr std::uint64_t kTenant = 0;
  service::TenantFrameEncoder encoder;
  std::vector<std::vector<std::uint8_t>> frames(1);
  encoder.encode_hello(kTenant, n, /*resync_chunk=*/8, frames[0]);
  for (const TenantOp& op : ops) {
    encoder.encode_op(kTenant, op, frames.emplace_back());
  }
  // One pump per batch; each makes one append and one sync.
  std::vector<std::size_t> batch_ends;
  for (std::size_t end = 0; end < frames.size();) {
    end = std::min(frames.size(), end + 1 + rng.below(16));
    batch_ends.push_back(end);
  }

  SimStorage storage(faults);
  ThreadPool pool(1);
  service::DaemonOptions options;
  options.shards = 1;
  options.journal = &storage;
  const auto restart = [&](RecoveryStats& stats) {
    auto daemon = std::make_unique<service::MonitorDaemon>(options, pool);
    stats.recovered = !storage.list().empty();
    const auto start = std::chrono::steady_clock::now();
    daemon->recover();
    stats.recovery_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    stats.events_replayed = daemon->stats().frames_applied;
    return daemon;
  };

  auto daemon = std::make_unique<service::MonitorDaemon>(options, pool);
  storage.crash_after_ops(1 + rng.below(2 * batch_ends.size()));
  std::size_t acked = 0;  // frames [0, acked) were applied by a returned pump
  for (std::size_t b = 0; b < batch_ends.size();) {
    for (std::size_t i = acked; i < batch_ends[b]; ++i) {
      daemon->submit(frames[i]);
    }
    try {
      daemon->pump();
      acked = batch_ends[b++];
    } catch (const StorageCrash&) {
      if (out.crashed) {
        out.violation = "simulated crash fired twice";
        return out;
      }
      out.crashed = true;
      daemon = restart(out.recovery);
    }
  }

  const std::vector<std::string> verdicts = daemon->verdicts(kTenant);
  std::vector<explore::Firing> fired;
  for (const std::string& v : verdicts) fired.push_back({v == "X|Y|holds"});
  out.violation = explore::compare_firings(
      "hosted monitor", fired, explore::clean_firings(n, reports, actions));
  if (!out.violation.empty()) return out;
  // A resubmitted copy of a frame recover() replayed is a duplicate, and a
  // cut torn tail is counted apart: nothing of this leg is quarantined.
  const auto quarantined = [&out](const service::MonitorDaemon& d,
                                  const char* when) {
    const std::uint64_t q = d.stats().frames_quarantined;
    if (q != 0) out.violation = "hosted monitor: " + std::to_string(q) + when;
    return q != 0;
  };
  if (quarantined(*daemon, " frames quarantined live")) return out;

  // Every frame is acknowledged, so a crash now loses nothing: a daemon
  // recovered from the journal alone must rebuild the same tenant.
  storage.crash();
  RecoveryStats final_restart;
  const auto restarted = restart(final_restart);
  if (restarted->verdicts(kTenant) != verdicts ||
      restarted->stats().frames_applied != daemon->stats().frames_applied) {
    out.violation =
        "hosted monitor: a restart from the journal lost acknowledged frames";
    return out;
  }
  quarantined(*restarted, " frames quarantined by a restart");
  return out;
}

}  // namespace syncon::check
