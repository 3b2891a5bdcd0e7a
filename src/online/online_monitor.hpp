// Application-facing runtime monitor: track named high-level actions as
// their component events execute, and have registered synchronization /
// deadline watches fire the moment both actions of a pair complete — the
// "detect the relations efficiently" loop the paper motivates, without any
// post-hoc trace pass.
//
// Actions are interned at first mention (begin, or a watch naming an action
// not begun yet): one dense id per label addresses one action record — its
// tracker, its summary once complete, and its stage timing. Labels are
// looked up only where they enter the API; watches hold ids. A relation
// watch covers a RelationSet of one pair, so a pair's watched relations are
// evaluated in one pass over the summaries' proxy cuts when it fires.
//
// Degraded mode (DESIGN.md §3.7): a monitor deployed behind a real network
// sees event *reports* that can be lost, duplicated or reordered, and it
// must not silently evaluate on the resulting corrupted state. Such a
// feed-only monitor learns each action's member events from record() and
// routes every report itself: observe() folds a member's report into its
// action in any arrival order, suppresses duplicates, and runs a GapTracker
// over the piggybacked clocks; every watch then fires with a
// Confidence flag — Definite when the local history explains every clock
// seen, PendingGap when known-lost predecessor reports may still change
// the verdict. When recovery (checkpoint, then resync: rounds of
// resync_request → OnlineSystem::serve → the caller's feed) closes all
// gaps, pending watches re-fire Definite with the repaired summaries,
// converging to the fault-free verdicts; a gap the log cannot serve is
// never requested, stays open, and its verdicts stay PendingGap. A crash
// watchdog (mark_crashed / doomed_actions) surfaces open actions that can
// never complete because their process died.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cuts/ll_relation.hpp"
#include "obs/latency.hpp"
#include "online/gap_tracker.hpp"
#include "online/interval_tracker.hpp"
#include "online/online_evaluator.hpp"
#include "timing/timing_constraints.hpp"

namespace syncon {

/// How much a fired verdict can be trusted in degraded mode.
enum class Confidence {
  /// Every clock the monitor has seen is fully explained by witnessed
  /// reports — the verdict equals the fault-free one (for the data seen).
  Definite,
  /// Known-lost predecessor reports are outstanding; the verdict was
  /// computed on provably incomplete state and will be re-issued after
  /// recovery.
  PendingGap,
};

const char* to_string(Confidence c);

class OnlineMonitor {
 public:
  /// Fired when both actions of a watched pair have completed (and again,
  /// at most once per repair, when recovery upgrades a PendingGap verdict)
  /// with the watched relations that hold.
  using RelationSetCallback =
      std::function<void(RelationSet holding, Confidence confidence)>;
  /// The one-relation form, with the pair's labels.
  using RelationCallback =
      std::function<void(const std::string& x, const std::string& y,
                         bool holds, Confidence confidence)>;
  using DeadlineCallback = std::function<void(
      const std::string& x, const std::string& y, Duration measured_gap,
      bool satisfied, Confidence confidence)>;

  /// The monitor observes (does not own) the running system.
  explicit OnlineMonitor(const OnlineSystem& system);

  /// A monitor with no access to the running system — the deployment shape
  /// behind a lossy report channel: record() declares members, observe()
  /// folds their reports.
  explicit OnlineMonitor(std::size_t process_count);

  /// Action records point into the label index, and callbacks may hold
  /// the monitor: it stays where it was built.
  OnlineMonitor(const OnlineMonitor&) = delete;
  OnlineMonitor& operator=(const OnlineMonitor&) = delete;

  // --- interval lifecycle ---------------------------------------------------

  /// Opens a new tracked action. Labels are unique across open+completed.
  void begin(const std::string& label);
  /// Adds event `e` to the open action `label`: a system-observing monitor
  /// folds it from the system, a feed-only one declares it a member whose
  /// report observe() folds. Declaring a member again to the same action
  /// is a no-op; declaring it to another live action is a violation.
  void record(const std::string& label, EventId e);
  /// Completes an action: snapshots its summary and fires every watch whose
  /// counterpart is already complete.
  const IntervalSummary& complete(const std::string& label);

  bool is_open(const std::string& label) const;
  /// Component events folded so far into an open action. In degraded mode
  /// an action can reach its completion point with zero recorded events —
  /// every report lost — and complete() requires at least one; callers
  /// behind a lossy feed check this and recover (checkpoint + resync)
  /// before completing.
  std::size_t recorded_events(const std::string& label) const;
  /// Summary of a completed action (nullptr otherwise). The pointer, like
  /// the reference complete() returns, stays valid until forget(label).
  const IntervalSummary* summary(const std::string& label) const;

  /// Drops a completed action's summary, its members and every fired watch
  /// that referenced it — the garbage-collection hook a long-running
  /// monitor needs for bounded memory. Unfired watches naming the label are
  /// dropped too (they could never fire again). The label may be reused
  /// afterwards, and its id is recycled. Calling it from a watch callback
  /// is a contract violation.
  void forget(const std::string& label);

  /// Completed summaries currently retained.
  std::size_t retained() const;

  // --- degraded-mode report feed --------------------------------------------

  /// Integrates an event report that arrived over a (possibly lossy)
  /// channel, in any order: deduplication and gap bookkeeping, and, when
  /// the report's source is a declared member of an open or completed
  /// action, a fold into that action from the report's own clock (never
  /// reading the shared system). A late report for a completed action
  /// repairs its summary and re-arms the watches that used it. A malformed
  /// report (unknown source process, non-event index, foreign clock size,
  /// clock breaking the Fidge own-component invariant) is rejected into
  /// quarantined(), never thrown — wire garbage must not kill the monitor
  /// (DESIGN.md §3.12). Returns true iff the report was fresh; false also
  /// means quarantined (the counter tells them apart).
  bool observe(const WireMessage& report,
               std::int64_t when = OnlineSystem::kNoTime);

  /// True iff observe() folds `e`'s report (a declared member).
  bool is_member(EventId e) const { return members_.contains(e); }

  /// Reports observe() rejected so far.
  std::uint64_t quarantined() const { return quarantined_; }

  /// Clock-snapshot recovery: an authoritative clock snapshot (e.g. from
  /// OnlineSystem::snapshot(), broadcast periodically) vouches for every
  /// event executed so far, exposing tail losses no later report would
  /// claim. resync() then closes the gaps it exposes.
  void checkpoint(const VectorClock& snapshot);

  /// Known-lost reports: claimed by some clock seen here, never observed.
  /// `limit` bounds the enumeration so a long outage can be recovered in
  /// chunks instead of materializing millions of EventIds at once.
  std::vector<EventId> missing_reports(
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const {
    return gaps_.missing(limit);
  }
  /// Exact number of known-lost reports, without materializing them.
  std::size_t missing_report_count() const { return gaps_.missing_count(); }
  /// Retransmit request covering missing_reports(limit). resync() is the
  /// loop that serves it and feeds the replies back.
  RetransmitRequest resync_request(
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const {
    return gaps_.resync_request(limit);
  }
  /// True once any report has been observed (the monitor then
  /// treats outstanding gaps as verdict-tainting).
  bool degraded() const { return degraded_; }
  /// Duplicate reports suppressed so far.
  std::uint64_t duplicate_reports() const { return duplicate_reports_; }

  /// Closes the known gaps from the authoritative `log`, the one resync
  /// loop. It requests only the missing reports `log` can serve, (q, i)
  /// with i ≤ log.executed(q): one above the log's frontier (a crashed
  /// process, quarantined journal frames, a hostile claim) stays missing,
  /// and verdicts across it PendingGap, without costing a round. Each round
  /// requests the next `chunk` (> 0) of them after the previous round's
  /// (wrapping to the first), serves them from `log` and hands every reply
  /// to `feed` (observe(), or a journaling shell's). A round that got a
  /// surface reply (a reclaimed event, !log.is_live) then adopts
  /// log.checkpoint(), which is how a late joiner crosses the watermark.
  /// Stops once no servable report is missing, or once the rounds since
  /// the last one that recovered a report have asked for every servable
  /// one. Claim the snapshot first (checkpoint()) to expose tail losses.
  /// Returns the rounds run.
  std::size_t resync(const OnlineSystem& log, std::size_t chunk,
                     const std::function<void(const WireMessage&)>& feed);

  // --- retention (DESIGN.md §3.10) ------------------------------------------

  /// This monitor's retention pin, in the watermark's counts form: component
  /// p is the smallest index the authoritative log must keep live for p —
  /// min(witnessed contiguous prefix + 1, least event index referenced by
  /// any open action). While a gap is open the pin sits at the gap (every
  /// missing report lies above the contiguous prefix, so resync can always
  /// be served); while an action is open its events stay servable until the
  /// watches that need them have evaluated. Feed the componentwise min of
  /// every consumer's pin (cuts::low_watermark) to OnlineSystem::compact.
  VectorClock watermark_pin() const;
  /// The same, written into `pin` (resized only if it is not |P| wide): a
  /// caller that compacts on a cadence keeps one clock and allocates
  /// nothing per call.
  void watermark_pin(VectorClock& pin) const;

  /// Adopts the authoritative system's retention checkpoint: reports below
  /// the checkpoint cut can never be served again (their log entries were
  /// reclaimed), so the gaps they caused are closed via GapTracker::forgive,
  /// and the cut's surface clocks are claimed so a late-joining monitor
  /// learns the frontier it can never see reports for. Pending watches
  /// re-fire Definite if this closes the last gap — the deployment
  /// guarantees (by compacting only below every consumer's pin) that the
  /// forgiven reports were either already witnessed here or irrelevant.
  void adopt_checkpoint(const RetentionCheckpoint& checkpoint);

  // --- crash watchdog -------------------------------------------------------

  /// Marks a process as crashed (fed by the fault plan or an external
  /// failure detector). Its lost reports can never be retransmitted.
  void mark_crashed(ProcessId p);
  bool is_crashed(ProcessId p) const;
  std::vector<ProcessId> crashed_processes() const;

  /// Watchdog: open actions that can never complete — they have component
  /// events on a crashed process, so the rest of the action (and its
  /// completion) will never arrive.
  std::vector<std::string> doomed_actions() const;

  /// Missing reports whose process crashed: no log can serve them, so the
  /// gaps they cause are permanent (watches involving them stay PendingGap).
  std::vector<EventId> unrecoverable_reports() const;

  // --- watches ---------------------------------------------------------------

  /// Watch the relations of `relations` for the labeled pair; fires at the
  /// later completion with the members that hold (one evaluation pass for
  /// the whole set) and the current Confidence. A PendingGap firing leaves
  /// the watch armed: it fires once more, Definite, when recovery closes
  /// every gap, and again whenever a late report repairs X or Y.
  /// Registration after both completed fires immediately. Watches fire in
  /// registration order; a callback may register further watches.
  void watch(RelationSet relations, const std::string& x,
             const std::string& y, RelationSetCallback callback);

  /// Watch one relation r(X, Y): a one-member set watch whose callback gets
  /// the labels given here and whether r holds.
  void watch(const RelationId& relation, const std::string& x,
             const std::string& y, RelationCallback callback);

  /// Watch a relative timing constraint between the pair's physical spans
  /// (requires both actions fully timed; fires with satisfied=false and
  /// gap=0 if they are not).
  void watch_deadline(const TimingConstraint& constraint,
                      const std::string& x, const std::string& y,
                      DeadlineCallback callback);

  /// Comparison-cost accounting across all fired watches (a set watch
  /// counts what one watch per member would).
  const QueryCost& counter() const { return counter_; }

  /// Watch firings so far, by confidence (re-firings count again; a set
  /// watch firing counts once).
  std::uint64_t definite_fires() const { return definite_fires_; }
  std::uint64_t pending_fires() const { return pending_fires_; }

  // --- detection-latency attribution (DESIGN.md §3.13) ----------------------

  /// With tracking on, every action stamps wall-clock stage times
  /// (begin → reports → complete) and every watch firing produces an
  /// obs::Waterfall attributing its end-to-end detection latency to the
  /// observe / track / gap_wait / evaluate / fire stages (each also fed
  /// into the syncon_detect_latency_{stage}_us histograms). Off by default:
  /// the fast path then never reads the clock for attribution.
  void set_latency_tracking(bool on) { latency_tracking_ = on; }
  bool latency_tracking() const { return latency_tracking_; }

  /// Waterfalls of the most recent firings, oldest first. Bounded: the
  /// newest kMaxWaterfalls are retained (a soak does not grow this).
  const std::deque<obs::Waterfall>& waterfalls() const { return waterfalls_; }

  static constexpr std::size_t kMaxWaterfalls = 256;

  // --- health / telemetry ---------------------------------------------------

  /// One row of the monitor's health report: the registry metric name, the
  /// prose label write_online_report prints, and the value.
  struct HealthMetric {
    std::string metric;
    std::string label;
    std::uint64_t value = 0;
  };

  /// The monitor's health numbers, one list for every consumer: the text
  /// report (monitor/report.cpp) renders the labels, publish_metrics()
  /// mirrors the metric names into the registry — so the table and the
  /// Prometheus/JSON exporters can never disagree (DESIGN.md §3.8).
  std::vector<HealthMetric> health_metrics() const;

  /// Publishes health_metrics() into MetricRegistry::global() as gauges.
  void publish_metrics() const;

 private:
  /// Dense handle of an interned action label.
  using ActionId = std::uint32_t;
  static constexpr ActionId kNoAction = std::numeric_limits<ActionId>::max();

  /// Wall-clock stage stamps of one tracked action (all obs::now_us();
  /// zero = never stamped, e.g. tracking was enabled mid-action).
  struct ActionTiming {
    std::uint64_t begin_us = 0;
    std::uint64_t first_report_us = 0;
    std::uint64_t last_report_us = 0;
    std::uint64_t completed_us = 0;
  };

  /// One interned label. kNamed: only watches name it so far (begin() not
  /// called yet); it is released once no watch names it.
  struct Action {
    enum class State : std::uint8_t { kNamed, kOpen, kComplete };
    State state = State::kNamed;
    /// Watches naming this action (counted twice for a self-pair).
    std::uint32_t watchers = 0;
    std::map<std::string, ActionId>::iterator entry;  // into ids_
    /// Kept after completion, so late reports can repair the summary.
    IntervalTracker tracker{std::string()};
    /// Declared members (feed-only monitor), dropped at release.
    std::vector<EventId> members;
    std::optional<IntervalSummary> summary;  // set while kComplete
    ActionTiming timing;
  };

  /// Firing state shared by both watch kinds.
  struct WatchState {
    bool armed = true;
    int fires = 0;
    Confidence last = Confidence::Definite;
  };
  struct RelationWatch {
    ActionId x, y;
    RelationSet relations;
    RelationSetCallback callback;
    WatchState state;
  };
  struct DeadlineWatch {
    ActionId x, y;
    TimingConstraint constraint;
    DeadlineCallback callback;
    WatchState state;
  };

  /// The id of `label`, interning it as kNamed if it is new.
  ActionId intern(const std::string& label);
  /// The id of `label`, or kNoAction.
  ActionId find(const std::string& label) const;
  bool in_state(ActionId id, Action::State state) const;
  /// Erases the action's label and returns its id to the free list.
  void release(ActionId id);
  /// Drops every watch naming `id`, releasing partners left unnamed.
  template <class Watches>
  void drop_watches(Watches& watches, ActionId id);
  /// The summary of a completed action, nullptr otherwise.
  const IntervalSummary* completed(ActionId id) const;
  std::size_t count(Action::State state) const;

  void fire_ready_watches();
  /// Marks a watch fired now and counts it; returns its confidence.
  Confidence take_firing(WatchState& state);
  Confidence current_confidence() const;
  /// Stamps a report's arrival into the action's timing record.
  void note_action_report(ActionId id);
  /// Builds the contiguous five-stage waterfall for a firing of (x, y),
  /// records the stage histograms and the kVerdict flight record, and
  /// retains it (bounded by kMaxWaterfalls).
  void emit_waterfall(ActionId x, ActionId y, bool holds,
                      Confidence confidence, int fires, std::uint64_t eval0_us,
                      std::uint64_t eval1_us, std::uint64_t fired_us);
  /// Structural sanity of a wire report (see observe).
  bool valid_report(const WireMessage& report) const;
  void quarantine(const WireMessage& report);
  /// Tracks has_gap() transitions after each report/checkpoint, feeding the
  /// gap-open-duration histogram (measured in observed reports — the
  /// monitor's deterministic clock).
  void note_gap_state();
  /// Re-arms watches so they re-fire with repaired state: all watches
  /// naming `repaired` (after a late report repaired it), and — when every
  /// gap has closed — all watches whose last firing was PendingGap.
  void rearm_after_recovery(ActionId repaired);
  static Duration anchor_time(const IntervalSummary& s, Anchor a);

  const OnlineSystem* system_;  // null for the feed-only monitor
  std::size_t process_count_;
  /// The label→id index; consulted only where a label enters the API.
  std::map<std::string, ActionId> ids_;
  /// Declared member → its action: the one routing decision for reports.
  std::unordered_map<EventId, ActionId> members_;
  /// Indexed by ActionId. Records live on the heap: interning moves none,
  /// so summary references stay valid until forget().
  std::vector<std::unique_ptr<Action>> actions_;
  std::vector<ActionId> free_ids_;
  /// Lists: a callback registering a watch moves none of them.
  std::list<RelationWatch> relation_watches_;
  std::list<DeadlineWatch> deadline_watches_;
  GapTracker gaps_;
  std::vector<bool> crashed_;
  QueryCost counter_;
  bool degraded_ = false;
  std::uint64_t duplicate_reports_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t definite_fires_ = 0;
  std::uint64_t pending_fires_ = 0;
  bool firing_ = false;
  // Gap-open accounting in report counts (see note_gap_state).
  std::uint64_t reports_seen_ = 0;
  std::uint64_t gap_opened_at_report_ = 0;
  bool gap_open_ = false;
  // Detection-latency attribution (see set_latency_tracking).
  bool latency_tracking_ = false;
  std::deque<obs::Waterfall> waterfalls_;
  std::uint64_t gap_opened_us_ = 0;
};

}  // namespace syncon
