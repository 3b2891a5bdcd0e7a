#include "online/online_monitor.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

const char* to_string(Confidence c) {
  return c == Confidence::Definite ? "definite" : "pending-gap";
}

OnlineMonitor::OnlineMonitor(const OnlineSystem& system)
    : system_(&system),
      process_count_(system.process_count()),
      gaps_(system.process_count()),
      crashed_(system.process_count(), false) {}

OnlineMonitor::OnlineMonitor(std::size_t process_count)
    : system_(nullptr),
      process_count_(process_count),
      gaps_(process_count),
      crashed_(process_count, false) {
  SYNCON_REQUIRE(process_count > 0, "need at least one process");
}

OnlineMonitor::ActionId OnlineMonitor::intern(const std::string& label) {
  const auto [it, fresh] = ids_.try_emplace(label, kNoAction);
  if (!fresh) return it->second;
  if (free_ids_.empty()) {
    it->second = static_cast<ActionId>(actions_.size());
    actions_.push_back(std::make_unique<Action>());
  } else {
    it->second = free_ids_.back();
    free_ids_.pop_back();
  }
  Action& a = *actions_[it->second];
  a.entry = it;
  a.tracker = IntervalTracker(label);
  return it->second;
}

OnlineMonitor::ActionId OnlineMonitor::find(const std::string& label) const {
  const auto it = ids_.find(label);
  return it == ids_.end() ? kNoAction : it->second;
}

bool OnlineMonitor::in_state(ActionId id, Action::State state) const {
  return id != kNoAction && actions_[id]->state == state;
}

void OnlineMonitor::release(ActionId id) {
  Action& a = *actions_[id];
  for (const EventId& e : a.members) members_.erase(e);
  ids_.erase(a.entry);
  // Keeps the record and its member list's buffer for the id's next use.
  std::vector<EventId> members = std::move(a.members);
  members.clear();
  a = Action{};
  a.members = std::move(members);
  free_ids_.push_back(id);
}

template <class Watches>
void OnlineMonitor::drop_watches(Watches& watches, ActionId id) {
  std::erase_if(watches, [&](const auto& w) {
    if (w.x != id && w.y != id) return false;
    for (const ActionId end : {w.x, w.y}) {
      Action& a = *actions_[end];
      if (--a.watchers == 0 && a.state == Action::State::kNamed) release(end);
    }
    return true;
  });
}

const IntervalSummary* OnlineMonitor::completed(ActionId id) const {
  return in_state(id, Action::State::kComplete) ? &*actions_[id]->summary
                                                : nullptr;
}

std::size_t OnlineMonitor::count(Action::State state) const {
  std::size_t n = 0;
  for (const auto& [label, id] : ids_) n += actions_[id]->state == state;
  return n;
}

void OnlineMonitor::begin(const std::string& label) {
  SYNCON_REQUIRE(!label.empty(), "actions need a label");
  Action& a = *actions_[intern(label)];
  SYNCON_REQUIRE(a.state == Action::State::kNamed,
                 "duplicate action label '" + label + "'");
  a.state = Action::State::kOpen;
  if (latency_tracking_) a.timing.begin_us = obs::now_us();
}

void OnlineMonitor::record(const std::string& label, EventId e) {
  const ActionId id = find(label);
  SYNCON_REQUIRE(in_state(id, Action::State::kOpen),
                 "no open action labeled '" + label + "'");
  if (system_ != nullptr) {
    actions_[id]->tracker.add(*system_, e);
    note_action_report(id);
    return;
  }
  const auto [it, fresh] = members_.try_emplace(e, id);
  SYNCON_REQUIRE(it->second == id, "event " + to_string(e) +
                                       " is a member of another action");
  if (fresh) actions_[id]->members.push_back(e);
}

const IntervalSummary& OnlineMonitor::complete(const std::string& label) {
  const ActionId id = find(label);
  SYNCON_REQUIRE(in_state(id, Action::State::kOpen),
                 "no open action labeled '" + label + "'");
  Action& a = *actions_[id];
  SYNCON_REQUIRE(!a.tracker.empty(),
                 "completing '" + label + "' with no recorded events" +
                     (system_ == nullptr
                          ? " — every report may have been lost; checkpoint() "
                            "an authoritative snapshot and resync first"
                          : ""));
  // The tracker stays: a late report recovered after a loss can still repair
  // this summary (degraded mode). forget() releases both.
  a.summary = a.tracker.summary();
  a.state = Action::State::kComplete;
  if (latency_tracking_) a.timing.completed_us = obs::now_us();
  fire_ready_watches();
  return *a.summary;
}

bool OnlineMonitor::is_open(const std::string& label) const {
  return in_state(find(label), Action::State::kOpen);
}

std::size_t OnlineMonitor::recorded_events(const std::string& label) const {
  const ActionId id = find(label);
  SYNCON_REQUIRE(in_state(id, Action::State::kOpen),
                 "no open action labeled '" + label + "'");
  return actions_[id]->tracker.event_count();
}

const IntervalSummary* OnlineMonitor::summary(const std::string& label) const {
  return completed(find(label));
}

void OnlineMonitor::forget(const std::string& label) {
  SYNCON_REQUIRE(!firing_, "forget() called from a watch callback");
  const ActionId id = find(label);
  SYNCON_REQUIRE(in_state(id, Action::State::kComplete),
                 "no completed action labeled '" + label + "'");
  drop_watches(relation_watches_, id);
  drop_watches(deadline_watches_, id);
  release(id);
}

std::size_t OnlineMonitor::retained() const {
  return count(Action::State::kComplete);
}

bool OnlineMonitor::observe(const WireMessage& report, std::int64_t when) {
  if (!valid_report(report)) {
    quarantine(report);
    return false;
  }
  SYNCON_SPAN("monitor/ingest");
  degraded_ = true;
  ++reports_seen_;
  if (!gaps_.witness(report.source)) {
    ++duplicate_reports_;
    return false;
  }
  gaps_.claim(report.clock);
  if (const auto member = members_.find(report.source);
      member != members_.end()) {
    note_action_report(member->second);
    Action& a = *actions_[member->second];
    a.tracker.add(report.source, report.clock, when);
    if (a.state == Action::State::kComplete) {
      // Late report for a completed action: repair the summary in place and
      // let the watches that consumed it re-fire with the corrected verdict.
      *a.summary = a.tracker.summary();
      rearm_after_recovery(member->second);
    }
  }
  note_gap_state();
  if (!gaps_.has_gap()) rearm_after_recovery(kNoAction);
  fire_ready_watches();
  return true;
}

bool OnlineMonitor::valid_report(const WireMessage& report) const {
  // Everything a genuine report satisfies and garbage usually does not:
  // range checks the gap tracker would otherwise abort on, plus the Fidge
  // invariant — the clock of event (p, i) has own component i + 1 (the
  // convention counts the dummy), compared in 64 bits so index 2^32 - 1
  // cannot wrap to a zero component. A corrupt frame that still passes all
  // of this carries a self-consistent clock and folds in harmlessly.
  return report.source.process < process_count_ && report.source.index >= 1 &&
         report.clock.size() == process_count_ &&
         std::uint64_t{report.clock[report.source.process]} ==
             std::uint64_t{report.source.index} + 1;
}

void OnlineMonitor::quarantine(const WireMessage& report) {
  ++quarantined_;
  if (obs::enabled()) {
    static obs::Counter& c = obs::MetricRegistry::global().counter(
        "syncon_monitor_quarantined_reports_total");
    c.add();
  }
  obs::flight(obs::FlightKind::kQuarantine, obs::FlightRecord::kNoProcess,
              obs::pack_event(report.source));
  obs::flight_auto_dump("quarantine");
}

std::size_t OnlineMonitor::resync(
    const OnlineSystem& log, std::size_t chunk,
    const std::function<void(const WireMessage&)>& feed) {
  SYNCON_REQUIRE(chunk > 0, "resync chunk must be positive");
  std::size_t rounds = 0;
  if (!gaps_.has_gap()) return rounds;
  // What `log` serves: a claim far beyond its frontier costs no round.
  std::vector<EventIndex> servable(process_count_, 0);
  for (ProcessId q = 0; q < std::min(process_count_, log.process_count());
       ++q) {
    servable[q] = log.executed(q);
  }
  // Each round asks for the next `chunk` servable missing reports after the
  // last round's, wrapping to the first at the end. `barren` counts the
  // reports asked for since a round last recovered one: once it reaches
  // the servable missing count, a full pass recovered nothing.
  EventId from{0, 0};
  std::size_t barren = 0;
  for (std::size_t missing = gaps_.missing_count(servable); missing > barren;) {
    const RetransmitRequest request{gaps_.missing(chunk, from, servable)};
    if (request.empty()) {
      from = EventId{0, 0};  // past the last missing report
      continue;
    }
    ++rounds;
    obs::flight(obs::FlightKind::kResyncRequest, obs::FlightRecord::kNoProcess,
                request.events.size(), rounds);
    bool surfaced = false;
    for (const WireMessage& reply : log.serve(request)) {
      surfaced = surfaced || !log.is_live(reply.source);
      feed(reply);
    }
    // A surface reply vouches for a reclaimed prefix no reply will replay:
    // the log's checkpoint forgives it.
    if (surfaced) adopt_checkpoint(log.checkpoint());
    const std::size_t after = gaps_.missing_count(servable);
    barren = after < missing ? 0 : barren + request.events.size();
    missing = after;
    const EventId last = request.events.back();
    from = EventId{last.process, last.index + 1};
  }
  return rounds;
}

void OnlineMonitor::checkpoint(const VectorClock& snapshot) {
  degraded_ = true;
  gaps_.claim(snapshot);
  obs::flight(obs::FlightKind::kCheckpoint, obs::FlightRecord::kNoProcess);
  note_gap_state();
}

VectorClock OnlineMonitor::watermark_pin() const {
  VectorClock pin;
  watermark_pin(pin);
  return pin;
}

void OnlineMonitor::watermark_pin(VectorClock& pin) const {
  if (pin.size() != process_count_) pin = VectorClock(process_count_);
  for (ProcessId p = 0; p < process_count_; ++p) {
    pin.set(p, gaps_.contiguous_prefix(p) + 1);
  }
  // Open (unevaluated) actions keep their component events servable: the
  // pin holds at the least referenced index until the action completes and
  // its watches have consumed the summary.
  for (const std::unique_ptr<Action>& a : actions_) {
    if (a->state == Action::State::kOpen) a->tracker.lower_to_least(pin);
  }
}

void OnlineMonitor::adopt_checkpoint(const RetentionCheckpoint& checkpoint) {
  SYNCON_REQUIRE(checkpoint.cut.size() == process_count_,
                 "checkpoint cut has " +
                     std::to_string(checkpoint.cut.size()) +
                     " components, monitor covers " +
                     std::to_string(process_count_) + " processes");
  degraded_ = true;
  for (ProcessId p = 0; p < process_count_; ++p) {
    // The surface clock vouches for the frontier a late joiner can never
    // see reports for; anything it claims beyond the cut is a real gap the
    // normal resync path recovers.
    gaps_.claim(checkpoint.surface_clocks[p]);
    if (checkpoint.cut[p] > 0) gaps_.forgive(p, checkpoint.cut[p] - 1);
  }
  obs::flight(obs::FlightKind::kCheckpoint, obs::FlightRecord::kNoProcess,
              checkpoint.sequence);
  note_gap_state();
  if (!gaps_.has_gap()) rearm_after_recovery(kNoAction);
  fire_ready_watches();
}

void OnlineMonitor::note_gap_state() {
  const bool open_now = gaps_.has_gap();
  if (open_now && !gap_open_) {
    gap_open_ = true;
    gap_opened_at_report_ = reports_seen_;
    gap_opened_us_ = obs::now_us();
    obs::flight(obs::FlightKind::kGapOpen, obs::FlightRecord::kNoProcess,
                gaps_.missing_count());
  } else if (!open_now && gap_open_) {
    gap_open_ = false;
    const std::uint64_t open_us = obs::now_us() - gap_opened_us_;
    if (obs::enabled()) {
      // Duration measured in reports observed while the gap stayed open —
      // the monitor's own deterministic clock, unlike wall time.
      static obs::Histogram& open_reports =
          obs::MetricRegistry::global().histogram(
              "syncon_monitor_gap_open_reports",
              obs::HistogramSpec::exponential(1.0, 4096.0));
      open_reports.record(
          static_cast<double>(reports_seen_ - gap_opened_at_report_));
    }
    // The wall-clock dwell behind PendingGap verdicts — the resync leg of
    // the detection-latency taxonomy (outside the per-verdict waterfall,
    // since one gap episode can taint many verdicts).
    obs::record_stage_latency("resync_wait", open_us);
    obs::flight(obs::FlightKind::kGapClose, obs::FlightRecord::kNoProcess,
                reports_seen_ - gap_opened_at_report_, open_us);
  }
}

void OnlineMonitor::mark_crashed(ProcessId p) {
  SYNCON_REQUIRE(p < process_count_, "process id out of range");
  crashed_[p] = true;
  obs::flight(obs::FlightKind::kCrash, p);
}

bool OnlineMonitor::is_crashed(ProcessId p) const {
  SYNCON_REQUIRE(p < process_count_, "process id out of range");
  return crashed_[p];
}

std::vector<ProcessId> OnlineMonitor::crashed_processes() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < process_count_; ++p) {
    if (crashed_[p]) out.push_back(p);
  }
  return out;
}

std::vector<std::string> OnlineMonitor::doomed_actions() const {
  std::vector<std::string> out;
  for (const auto& [label, id] : ids_) {
    if (actions_[id]->state != Action::State::kOpen) continue;
    for (const ProcessId p : actions_[id]->tracker.nodes()) {
      if (crashed_[p]) {
        out.push_back(label);
        break;
      }
    }
  }
  return out;
}

std::vector<EventId> OnlineMonitor::unrecoverable_reports() const {
  std::vector<EventId> out;
  for (const EventId& e : gaps_.missing()) {
    if (crashed_[e.process]) out.push_back(e);
  }
  return out;
}

void OnlineMonitor::watch(RelationSet relations, const std::string& x,
                          const std::string& y, RelationSetCallback callback) {
  SYNCON_REQUIRE(callback != nullptr, "watch needs a callback");
  const ActionId ix = intern(x);
  const ActionId iy = intern(y);
  ++actions_[ix]->watchers;
  ++actions_[iy]->watchers;
  relation_watches_.push_back(
      RelationWatch{ix, iy, relations, std::move(callback), {}});
  fire_ready_watches();
}

void OnlineMonitor::watch(const RelationId& relation, const std::string& x,
                          const std::string& y, RelationCallback callback) {
  SYNCON_REQUIRE(callback != nullptr, "watch needs a callback");
  watch(RelationSet::of(relation), x, y,
        [callback = std::move(callback), x, y](RelationSet holding,
                                                Confidence confidence) {
          callback(x, y, !holding.empty(), confidence);
        });
}

void OnlineMonitor::watch_deadline(const TimingConstraint& constraint,
                                   const std::string& x, const std::string& y,
                                   DeadlineCallback callback) {
  SYNCON_REQUIRE(callback != nullptr, "watch needs a callback");
  SYNCON_REQUIRE(constraint.min_gap <= constraint.max_gap,
                 "constraint window must be ordered");
  const ActionId ix = intern(x);
  const ActionId iy = intern(y);
  ++actions_[ix]->watchers;
  ++actions_[iy]->watchers;
  deadline_watches_.push_back(
      DeadlineWatch{ix, iy, constraint, std::move(callback), {}});
  fire_ready_watches();
}

Duration OnlineMonitor::anchor_time(const IntervalSummary& s, Anchor a) {
  return a == Anchor::Start ? s.start_time : s.end_time;
}

Confidence OnlineMonitor::current_confidence() const {
  // Conservative: any outstanding gap taints every verdict — a lost report
  // could be a component event of any action (even one whose node set does
  // not show the lost event's process: all of an action's events on that
  // process may have been lost). See DESIGN.md §3.7.
  return degraded_ && gaps_.has_gap() ? Confidence::PendingGap
                                      : Confidence::Definite;
}

std::vector<OnlineMonitor::HealthMetric> OnlineMonitor::health_metrics()
    const {
  return {
      {"syncon_monitor_open_actions", "open actions",
       count(Action::State::kOpen)},
      {"syncon_monitor_completed_summaries", "completed summaries",
       retained()},
      {"syncon_monitor_reports_seen", "reports observed", reports_seen_},
      {"syncon_monitor_duplicate_reports", "duplicate reports suppressed",
       duplicate_reports_},
      {"syncon_monitor_known_lost_reports", "known-lost reports",
       missing_report_count()},
      {"syncon_monitor_quarantined_reports", "quarantined reports",
       quarantined_},
      {"syncon_monitor_definite_fires", "definite watch firings",
       definite_fires_},
      {"syncon_monitor_pending_fires", "pending-gap watch firings",
       pending_fires_},
      {"syncon_monitor_crashed_processes", "crashed processes",
       crashed_processes().size()},
  };
}

void OnlineMonitor::publish_metrics() const {
  auto& registry = obs::MetricRegistry::global();
  for (const HealthMetric& m : health_metrics()) {
    registry.gauge(m.metric).set(static_cast<std::int64_t>(m.value));
  }
}

void OnlineMonitor::note_action_report(ActionId id) {
  if (!latency_tracking_) return;
  ActionTiming& t = actions_[id]->timing;
  const std::uint64_t now = obs::now_us();
  if (t.first_report_us == 0) t.first_report_us = now;
  t.last_report_us = now;
}

void OnlineMonitor::emit_waterfall(ActionId x, ActionId y, bool holds,
                                   Confidence confidence, int fires,
                                   std::uint64_t eval0_us,
                                   std::uint64_t eval1_us,
                                   std::uint64_t fired_us) {
  const ActionTiming& tx = actions_[x]->timing;
  const ActionTiming& ty = actions_[y]->timing;
  // Earliest stamp either action carries; a zero stamp means "tracking was
  // not on yet" and contributes nothing.
  const auto min_nonzero = [](std::uint64_t a, std::uint64_t b) {
    if (a == 0) return b;
    if (b == 0) return a;
    return std::min(a, b);
  };
  std::uint64_t start = min_nonzero(min_nonzero(tx.begin_us, ty.begin_us),
                                    min_nonzero(tx.first_report_us,
                                                ty.first_report_us));
  if (start == 0 || start > eval0_us) start = eval0_us;

  obs::Waterfall w;
  w.x = actions_[x]->entry->first;
  w.y = actions_[y]->entry->first;
  w.holds = holds;
  w.definite = confidence == Confidence::Definite;
  w.fire_index = fires;
  w.start_us = start;
  // Contiguous, clamped boundaries: each stage begins where the previous
  // ended, so the waterfall is monotone by construction and its durations
  // sum exactly to the end-to-end latency.
  const std::uint64_t bounds[] = {
      start,
      std::max(tx.last_report_us, ty.last_report_us),   // observe ends
      std::max(tx.completed_us, ty.completed_us),       // track ends
      eval0_us,                                         // gap_wait ends
      eval1_us,                                         // evaluate ends
      fired_us,                                         // fire ends
  };
  std::uint64_t cursor = start;
  const auto stages = obs::detect_stages();
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const std::uint64_t end = std::max(cursor, bounds[s + 1]);
    w.stages.push_back(
        obs::StageSpan{std::string(stages[s]), cursor, end - cursor});
    obs::record_stage_latency(stages[s], end - cursor);
    cursor = end;
  }
  obs::flight(obs::FlightKind::kVerdict, obs::FlightRecord::kNoProcess,
              static_cast<std::uint64_t>(holds) |
                  (static_cast<std::uint64_t>(w.definite) << 1),
              w.total_us());
  waterfalls_.push_back(std::move(w));
  while (waterfalls_.size() > kMaxWaterfalls) waterfalls_.pop_front();
}

void OnlineMonitor::rearm_after_recovery(ActionId repaired) {
  const bool all_clear = !gaps_.has_gap();
  const auto rearm = [&](auto& watch) {
    WatchState& st = watch.state;
    if (st.fires == 0 || st.armed) return;
    if (watch.x == repaired || watch.y == repaired ||
        (all_clear && st.last == Confidence::PendingGap)) {
      st.armed = true;
    }
  };
  for (RelationWatch& w : relation_watches_) rearm(w);
  for (DeadlineWatch& w : deadline_watches_) rearm(w);
}

Confidence OnlineMonitor::take_firing(WatchState& state) {
  const Confidence conf = current_confidence();
  state.armed = false;
  state.last = conf;
  ++state.fires;
  (conf == Confidence::Definite ? definite_fires_ : pending_fires_) += 1;
  return conf;
}

void OnlineMonitor::fire_ready_watches() {
  // Callbacks may re-enter the monitor (register further watches, complete
  // more actions): watches live in lists, so a registration moves none of
  // them, each firing calls its callback in place, and a watch a callback
  // appends lands before end(), where the running pass still reaches it.
  // Recursive firing is suppressed — the outer pass picks up anything new.
  // forget() from a callback would erase watches mid-pass, so it is a
  // contract violation.
  if (firing_) return;
  firing_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{firing_};
  const auto stamp = [this] { return latency_tracking_ ? obs::now_us() : 0; };
  bool fired_any = true;
  while (fired_any) {  // repeat: a callback may make earlier watches ready
    fired_any = false;
    for (RelationWatch& w : relation_watches_) {
      if (!w.state.armed) continue;
      const IntervalSummary* sx = completed(w.x);
      const IntervalSummary* sy = completed(w.y);
      if (sx == nullptr || sy == nullptr) continue;
      const Confidence conf = take_firing(w.state);
      fired_any = true;
      const std::uint64_t eval0 = stamp();
      const RelationSet holding =
          evaluate_online(w.relations, *sx, *sy, counter_);
      const std::uint64_t eval1 = stamp();
      w.callback(holding, conf);
      if (latency_tracking_) {
        emit_waterfall(w.x, w.y, holding == w.relations, conf, w.state.fires,
                       eval0, eval1, obs::now_us());
      }
    }
    for (DeadlineWatch& w : deadline_watches_) {
      if (!w.state.armed) continue;
      const IntervalSummary* sx = completed(w.x);
      const IntervalSummary* sy = completed(w.y);
      if (sx == nullptr || sy == nullptr) continue;
      const Confidence conf = take_firing(w.state);
      fired_any = true;
      const std::uint64_t eval0 = stamp();
      // Untimed actions cannot be measured: gap 0, unsatisfied.
      const bool timed = sx->fully_timed && sy->fully_timed;
      const Duration measured =
          timed ? anchor_time(*sy, w.constraint.anchor_y) -
                      anchor_time(*sx, w.constraint.anchor_x)
                : 0;
      const bool ok = timed && measured >= w.constraint.min_gap &&
                      measured <= w.constraint.max_gap;
      const std::uint64_t eval1 = stamp();
      w.callback(sx->label, sy->label, measured, ok, conf);
      if (latency_tracking_) {
        emit_waterfall(w.x, w.y, ok, conf, w.state.fires, eval0, eval1,
                       obs::now_us());
      }
    }
  }
}

}  // namespace syncon
