#include "explore/invariants.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "cuts/watermark.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/interval.hpp"
#include "online/online_monitor.hpp"
#include "online/online_system.hpp"
#include "relations/evaluator.hpp"
#include "sim/faulty_channel.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace syncon::explore {

namespace {

/// The recovery leg, or the compaction leg when `chunked`: `reports` through
/// the feed's channel into a fresh monitor, gaps closed by checkpoint +
/// resync from `sys`. Unchunked: one delivery, unbounded resync requests.
/// Chunked: 64 µs slices, each closed by 8-event requests before `sys` is
/// compacted at the monitor's watermark pin, so every request is served
/// from the live log.
std::string lossy_leg(std::string_view leg, bool chunked, OnlineSystem& sys,
                      std::span<const WireMessage> reports,
                      const MonitorActions& actions, const LossyFeed& feed,
                      const std::vector<Firing>& clean) {
  FaultyChannel channel = ship(feed, reports);
  OnlineMonitor mon(sys.process_count());
  actions.open(mon);
  TimePoint cursor = 0;
  do {
    cursor = chunked ? cursor + 64 : std::numeric_limits<TimePoint>::max();
    for (const Arrival& a : channel.pop_ready(cursor)) mon.observe(a.message);
    mon.checkpoint(sys.snapshot());
    mon.resync(sys, chunked ? 8 : std::numeric_limits<std::size_t>::max(),
               [&](const WireMessage& w) { mon.observe(w); });
    if (mon.missing_report_count() > 0) {
      return std::string(leg) + ": resync failed to converge";
    }
    if (chunked) {
      const VectorClock pins[] = {mon.watermark_pin()};
      sys.compact(low_watermark(pins));
    }
  } while (channel.in_transit() > 0);
  mon.complete("X");
  mon.complete("Y");
  return compare_firings(leg, watch_all(mon), clean);
}

}  // namespace

std::optional<unsigned> invariant_mask_from_csv(std::string_view csv) {
  static constexpr std::pair<std::string_view, unsigned> kNames[] = {
      {"relations", kInvRelations},   {"online", kInvOnline},
      {"monitor", kInvMonitor},       {"stability", kInvStability},
      {"compaction", kInvCompaction}, {"recovery", kInvRecovery},
      {"core", kInvCore},             {"all", kInvAll}};
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string_view name = csv.substr(pos, comma - pos);
    const auto* it = std::find_if(
        std::begin(kNames), std::end(kNames),
        [&](const auto& entry) { return entry.first == name; });
    if (it != std::end(kNames)) {
      mask |= it->second;
    } else if (!name.empty()) {
      return std::nullopt;
    }
    pos = comma + 1;
  }
  return mask;
}

std::vector<EventId> drive_system(const Universe& u, const Schedule& s,
                                  OnlineSystem& sys) {
  ScheduleState st(u);
  std::vector<std::vector<WireMessage>> pending(u.process_count());
  std::vector<EventId> order;
  order.reserve(u.total_ops());
  for (const Step step : s.word) {
    if (!is_deliver(step)) {
      const ProcessId p = process_of_exec(step);
      const EventId e{p, static_cast<EventIndex>(op_of_exec(step) + 1)};
      sys.local(p);
      order.push_back(e);
      st.apply(u, step);
      continue;
    }
    const UniverseMessage& m = u.messages[message_of(step)];
    pending[m.dst].push_back(
        sys.wire_of({m.src, static_cast<EventIndex>(m.src_op + 1)}));
    const std::uint32_t before = st.cursor[m.dst];
    st.apply(u, step);
    if (st.cursor[m.dst] != before) {
      const EventId e{m.dst, static_cast<EventIndex>(before + 1)};
      sys.deliver_all(m.dst, pending[m.dst]);
      pending[m.dst].clear();
      order.push_back(e);
    }
  }
  return order;
}

ScheduleCheckResult check_schedule(const Universe& u, const Schedule& s,
                                   const std::vector<EventId>& x_members,
                                   const std::vector<EventId>& y_members,
                                   const InvariantOptions& options) {
  ScheduleCheckResult result;
  const auto fail = [&result](std::string message) {
    result.passed = false;
    result.message = std::move(message);
    return result;
  };

  const std::shared_ptr<const Execution> exec = induced_execution(u, s);
  const Timestamps ts(*exec);
  const NonatomicEvent x(*exec, x_members, "X");
  const NonatomicEvent y(*exec, y_members, "Y");
  RelationEvaluator eval(ts);
  const EventHandle hx = eval.add_event(x);
  const EventHandle hy = eval.add_event(y);

  // The offline verdict payload — 32 relations × both orders — is always
  // computed: it is what cross-schedule comparisons (reduced vs naive, trace
  // stability) assert on.
  const auto ids = all_relation_ids();
  result.verdicts.reserve(64);
  for (const RelationId& id : ids) {
    result.verdicts.push_back(eval.holds(id, hx, hy));
    result.verdicts.push_back(eval.holds(id, hy, hx));
  }

  if (options.mask & kInvRelations) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const bool fast_xy = result.verdicts[2 * i];
      const bool fast_yx = result.verdicts[2 * i + 1];
      if (fast_xy != eval.holds_naive(ids[i], hx, hy)) {
        return fail("relations: " + to_string(ids[i]) +
                    "(X,Y) fast/naive verdicts differ");
      }
      if (fast_yx != eval.holds_naive(ids[i], hy, hx)) {
        return fail("relations: " + to_string(ids[i]) +
                    "(Y,X) fast/naive verdicts differ");
      }
    }
  }

  // Schedule-driven online system: shared by the online and monitor legs.
  OnlineSystem sys(u.process_count());
  const std::vector<EventId> order = drive_system(u, s, sys);

  if (options.mask & kInvOnline) {
    if (sys.total_executed() != u.total_ops()) {
      return fail("online: executed " +
                  std::to_string(sys.total_executed()) + " events, expected " +
                  std::to_string(u.total_ops()));
    }
    for (const EventId& e : order) {
      if (sys.clock_of(e) != ts.forward_ref(e)) {
        return fail("online: clock of " + to_string(e) +
                    " differs from the offline sweep");
      }
    }
    if (options.mask & kInvStability) {
      // A second linearization of the same trace — the binding walked
      // highest-numbered process first — must stamp identical clocks:
      // clocks are a function of the poset, not of the schedule.
      OnlineSystem alt(u.process_count());
      drive_system(
          u, {linearize(u, s.binding, Priority::kHighestFirst), s.binding},
          alt);
      for (const EventId& e : order) {
        if (alt.clock_of(e) != sys.clock_of(e)) {
          return fail("stability: clock of " + to_string(e) +
                      " depends on the linearization");
        }
      }
    }
  }

  const unsigned monitor_legs =
      options.mask & (kInvMonitor | kInvStability | kInvCompaction |
                      kInvRecovery);
  if (monitor_legs == 0) return result;
  const MonitorActions actions = split_actions(x, y);
  if (actions.y.empty()) return result;

  MonitorPlan plan;
  if (options.mask & kInvMonitor) {
    // The monitor's "Y" action holds only the Y-only members (shared events
    // were routed to X), so the offline reference is r(X, Y \ X).
    const EventHandle hy_only = eval.add_event(NonatomicEvent(
        *exec, std::vector<EventId>(actions.y.begin(), actions.y.end()),
        "Y"));
    plan.offline.reserve(ids.size());
    for (const RelationId& id : ids) {
      plan.offline.push_back({eval.holds(id, hx, hy_only)});
    }
  }
  plan.reversed = (options.mask & kInvStability) != 0;
  if (options.mask & kInvRecovery) {
    plan.lossy = seeded_feed(options.fault_seed ^ 0x5851f42d4c957f2dULL,
                             options.fault_seed ^ 0x9e3779b97f4a7c15ULL);
  }
  if (options.mask & kInvCompaction) {
    plan.compaction = seeded_feed(options.fault_seed ^ 0xda3e39cb94b95bdbULL,
                                  options.fault_seed ^ 1);
  }
  std::string violation =
      monitor_differential(sys, reports_of(sys, order), actions, plan);
  return violation.empty() ? result : fail(std::move(violation));
}

void MonitorActions::open(OnlineMonitor& mon) const {
  mon.begin("X");
  mon.begin("Y");
  for (const EventId& e : x) mon.record("X", e);
  for (const EventId& e : y) mon.record("Y", e);
}

MonitorActions split_actions(const NonatomicEvent& x, const NonatomicEvent& y) {
  MonitorActions actions{{x.events().begin(), x.events().end()}, {}};
  for (const EventId& e : y.events()) {
    if (!actions.x.count(e)) actions.y.insert(e);
  }
  return actions;
}

std::vector<Firing> watch_all(OnlineMonitor& mon) {
  std::vector<Firing> fired;
  mon.watch(RelationSet::all(), "X", "Y",
            [&fired](RelationSet holding, Confidence conf) {
              for (const RelationId& id : all_relation_ids()) {
                fired.push_back({holding.contains(id), conf});
              }
            });
  return fired;
}

std::vector<Firing> clean_firings(std::size_t processes,
                                  std::span<const WireMessage> reports,
                                  const MonitorActions& actions) {
  OnlineMonitor mon(processes);
  actions.open(mon);
  for (const WireMessage& r : reports) mon.observe(r);
  mon.complete("X");
  mon.complete("Y");
  return watch_all(mon);
}

std::string compare_firings(std::string_view leg,
                            const std::vector<Firing>& got,
                            const std::vector<Firing>& expected) {
  if (got.size() != 32 || expected.size() != 32) {
    return std::string(leg) + ": expected 32 immediate firings, got " +
           std::to_string(got.size()) + " against " +
           std::to_string(expected.size());
  }
  const auto ids = all_relation_ids();
  for (std::size_t i = 0; i < 32; ++i) {
    if (got[i].conf != Confidence::Definite || !(got[i] == expected[i])) {
      return std::string(leg) + ": " + to_string(ids[i]) +
             " verdict differs or is not Definite";
    }
  }
  return {};
}

LossyFeed seeded_feed(std::uint64_t link_seed, std::uint64_t channel_seed) {
  Xoshiro256StarStar rng(link_seed);
  return {generate_link_faults(rng), channel_seed};
}

FaultyChannel ship(const LossyFeed& feed,
                   std::span<const WireMessage> reports) {
  FaultyChannel channel(feed.link, feed.channel_seed);
  TimePoint t = 0;
  for (const WireMessage& r : reports) channel.push(r, t += 5);
  return channel;
}

std::vector<WireMessage> reports_of(const OnlineSystem& sys,
                                    std::span<const EventId> order) {
  std::vector<WireMessage> reports;
  reports.reserve(order.size());
  for (const EventId& e : order) reports.push_back(sys.wire_of(e));
  return reports;
}

std::string monitor_differential(OnlineSystem& sys,
                                 std::span<const WireMessage> reports,
                                 const MonitorActions& actions,
                                 const MonitorPlan& plan) {
  const std::size_t n = sys.process_count();
  const std::vector<Firing> clean = clean_firings(n, reports, actions);
  std::string v;
  if (!plan.offline.empty()) {
    v = compare_firings("monitor", clean, plan.offline);
    if (!v.empty()) return v;
  }
  if (plan.reversed) {
    // Reversed report order: every gap opens and then self-closes, so the
    // verdicts must come out bit-identical — they depend on the trace, not
    // on the feed schedule.
    const std::vector<WireMessage> reversed(reports.rbegin(), reports.rend());
    v = compare_firings("stability", clean_firings(n, reversed, actions),
                        clean);
    if (!v.empty()) return v;
  }
  if (plan.lossy) {
    v = lossy_leg("recovery", false, sys, reports, actions, *plan.lossy, clean);
    if (!v.empty()) return v;
  }
  if (!plan.compaction) return {};
  v = lossy_leg("compaction", true, sys, reports, actions, *plan.compaction,
                clean);
  if (!v.empty() || sys.reclaimed_events() == 0) return v;
  // A late joiner's resync crosses the watermark and is answered from the
  // checkpoint.
  OnlineMonitor late(n);
  late.checkpoint(sys.snapshot());
  late.resync(sys, 8, [&](const WireMessage& w) { late.observe(w); });
  if (late.missing_report_count() > 0) {
    return "compaction: late joiner failed to converge across the watermark";
  }
  return {};
}

}  // namespace syncon::explore
