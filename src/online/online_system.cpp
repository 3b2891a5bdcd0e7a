#include "online/online_system.hpp"

#include <algorithm>
#include <string>

#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

std::string describe(const EventId& e) {
  return std::to_string(e.process) + ":" + std::to_string(e.index);
}

obs::Counter& deliveries_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("syncon_online_deliveries_total");
  return c;
}

obs::Counter& duplicates_counter() {
  static obs::Counter& c = obs::MetricRegistry::global().counter(
      "syncon_online_duplicates_suppressed_total");
  return c;
}

// Wire latency of one delivery in µs of application time (receive `when`
// minus the source event's send time), when both sides are stamped.
void record_delivery_latency(std::int64_t sent_at, std::int64_t when) {
  if (sent_at < 0 || when < 0) return;  // kNoTime on either side
  static obs::Histogram& latency = obs::MetricRegistry::global().histogram(
      "syncon_online_delivery_latency_us",
      obs::HistogramSpec::exponential(1.0, 1048576.0));
  latency.record(static_cast<double>(when - sent_at));
  // Same measurement, filed under the detection-latency stage taxonomy
  // (the occurred → delivered leg; application-time domain).
  obs::record_stage_latency("delivered",
                            static_cast<std::uint64_t>(when - sent_at));
}

// The first receipt in a sorted list whose source index is >= `source`.
template <class Receipts>
auto first_receipt(Receipts& list, EventIndex source) {
  return std::lower_bound(
      list.begin(), list.end(), source,
      [](const auto& r, EventIndex i) { return r.source < i; });
}

}  // namespace

OnlineSystem::OnlineSystem(std::size_t process_count) {
  SYNCON_REQUIRE(process_count > 0, "need at least one process");
  checkpoint_ = RetentionCheckpoint::bottom(process_count);
  clocks_.reserve(process_count);
  for (std::size_t p = 0; p < process_count; ++p) {
    // Clock of ⊥_p: one own event (the dummy), nothing else known.
    VectorClock c(process_count, 0);
    c.set(p, 1);
    clocks_.push_back(std::move(c));
  }
  log_.resize(process_count);
  floor_.assign(process_count, 1);
  last_timed_.assign(process_count, kNoTime);
  receipts_.resize(process_count * process_count);
  gaps_.assign(process_count, GapTracker(process_count));
}

void OnlineSystem::check_deliverable(ProcessId p, const WireMessage& m) const {
  SYNCON_REQUIRE(m.source.process < clocks_.size(),
                 "message source " + describe(m.source) +
                     " names an unknown process (system has " +
                     std::to_string(clocks_.size()) + " processes)");
  SYNCON_REQUIRE(m.source.process != p,
                 "process " + std::to_string(p) +
                     " cannot receive its own message " + describe(m.source));
  SYNCON_REQUIRE(m.source.index >= 1,
                 "message source " + describe(m.source) +
                     " is not a real event (real events have index >= 1)");
  SYNCON_REQUIRE(m.clock.size() == clocks_[p].size(),
                 "message " + describe(m.source) + " carries a clock of " +
                     std::to_string(m.clock.size()) +
                     " components; this system has " +
                     std::to_string(clocks_[p].size()));
  SYNCON_REQUIRE(
      m.clock[p] <= clocks_[p][p],
      "message " + describe(m.source) +
          " claims receiver events that never executed (corrupt or foreign "
          "message: clock[" +
          std::to_string(p) + "] = " + std::to_string(m.clock[p]) +
          " > " + std::to_string(clocks_[p][p]) + ")");
}

const OnlineSystem::Column& OnlineSystem::live_column(EventId e) const {
  SYNCON_REQUIRE(e.process < log_.size() && e.index >= 1, "unknown event");
  const Column& col = log_[e.process];
  SYNCON_REQUIRE(e.index > col.base,
                 "event " + describe(e) +
                     " was reclaimed by compaction (the retention checkpoint "
                     "covers it; ask wire_of for its surface report)");
  SYNCON_REQUIRE(e.index <= col.executed(), "unknown event");
  return col;
}

StampView OnlineSystem::stamp(ProcessId p, EventIndex index) const {
  const Column& col = log_[p];
  const auto r =
      std::upper_bound(col.row_from.begin(), col.row_from.end(), index);
  const std::size_t w = process_count();
  const std::span<const ClockValue> row =
      r == col.row_from.begin()
          ? std::span<const ClockValue>(floor_)
          : std::span<const ClockValue>(col.rows).subspan(
                static_cast<std::size_t>(r - col.row_from.begin() - 1) * w,
                w);
  return StampView(row, p, index + 1);
}

void OnlineSystem::store_row(ProcessId p, EventIndex index,
                             const VectorClock& clock) {
  Column& col = log_[p];
  const std::size_t w = process_count();
  // The row in force at the next event is the last one stored.
  const ClockValue* in_force = col.row_from.empty()
                                   ? floor_.data()
                                   : col.rows.data() + col.rows.size() - w;
  for (std::size_t i = 0; i < w; ++i) {
    if (i != p && clock.at(i) != in_force[i]) {
      col.row_from.push_back(index);
      col.rows.insert(col.rows.end(), clock.values().begin(),
                      clock.values().end());
      return;
    }
  }
}

void OnlineSystem::record_receipt(ProcessId p, EventId source,
                                  EventIndex receive) {
  std::vector<Receipt>& list =
      receipts_[p * process_count() + source.process];
  const auto it = first_receipt(list, source.index);
  if (it != list.end() && it->source == source.index) return;  // first wins
  list.insert(it, Receipt{source.index, receive});
}

EventIndex OnlineSystem::receipt_of(ProcessId p, EventId source) const {
  const auto& list = receipts_[p * process_count() + source.process];
  const auto it = first_receipt(list, source.index);
  return it != list.end() && it->source == source.index ? it->receive : 0;
}

void OnlineSystem::Column::drop_dead_prefix(std::size_t width) {
  const std::size_t dead = base + 1 - first;
  if (dead < time.size() - dead) return;
  time.erase(time.begin(), time.begin() + static_cast<std::ptrdiff_t>(dead));
  // A local event after the cut still reads the last reclaimed receive's
  // row, so the row in force at base + 1 stays.
  const auto r = std::upper_bound(row_from.begin(), row_from.end(), base + 1);
  if (r != row_from.begin()) {
    const std::ptrdiff_t rows_dead = r - row_from.begin() - 1;
    row_from.erase(row_from.begin(), row_from.begin() + rows_dead);
    rows.erase(rows.begin(),
               rows.begin() + rows_dead * static_cast<std::ptrdiff_t>(width));
  }
  const auto k = std::upper_bound(
      receives.begin(), receives.end(), base,
      [](EventIndex i, const Receive& rcv) { return i < rcv.event; });
  const std::uint32_t sources_dead =
      k == receives.end() ? static_cast<std::uint32_t>(sources.size())
                          : k->offset;
  receives.erase(receives.begin(), k);
  for (Receive& rcv : receives) rcv.offset -= sources_dead;
  sources.erase(sources.begin(), sources.begin() + sources_dead);
  first = base + 1;
}

EventId OnlineSystem::advance(ProcessId p,
                              std::span<const WireMessage> messages,
                              std::int64_t when) {
  SYNCON_REQUIRE(p < clocks_.size(),
                 "process id " + std::to_string(p) + " out of range (" +
                     std::to_string(clocks_.size()) + " processes)");
  // The monotonicity floor is the last *timed* event: an untimed event in
  // between must not reset it and let time run backwards.
  SYNCON_REQUIRE(when == kNoTime || last_timed_[p] == kNoTime ||
                     when > last_timed_[p],
                 "per-process physical times must be strictly increasing");
  VectorClock& clock = clocks_[p];
  Column& col = log_[p];
  const EventIndex index = col.executed() + 1;
  const std::size_t offset = col.sources.size();
  for (const WireMessage& m : messages) {
    check_deliverable(p, m);
    // Loss accounting doubles as in-batch dedup: witness() is idempotent
    // and answers false for a source this receiver already consumed — the
    // same wire message twice in one gather batch is one delivery, not two
    // entries in the receive's source list.
    if (!gaps_[p].witness(m.source)) {
      ++duplicates_suppressed_;
      if (obs::enabled()) duplicates_counter().add();
      obs::flight(obs::FlightKind::kDuplicate, p, obs::pack_event(m.source));
      continue;
    }
    obs::flight(obs::FlightKind::kDelivery, p, obs::pack_event(m.source),
                when < 0 ? 0 : static_cast<std::uint64_t>(when));
    clock.merge_max(m.clock);
    col.sources.push_back(m.source);
    record_receipt(p, m.source, index);
    // Everything the source's clock vouches for (other than p's own events)
    // must eventually be witnessed too, or it was lost.
    for (ProcessId q = 0; q < clock.size(); ++q) {
      if (q == p || m.clock[q] == 0) continue;
      gaps_[p].claim(q, m.clock[q] - 1);
    }
    if (obs::enabled()) {
      deliveries_counter().add();
      if (is_live(m.source)) {
        record_delivery_latency(time_of(m.source), when);
      }
    }
  }
  // Delivery within a gather batch is set-like: merge_max commutes and
  // witness() is idempotent, so the only batch-order-dependent state would
  // be this source list. Canonicalize it so the logged event — and with it
  // sources_of, WAL records, and to_execution() — is a pure function of the
  // delivered *set*, not of the arrival permutation.
  if (col.sources.size() > offset) {
    std::sort(col.sources.begin() + static_cast<std::ptrdiff_t>(offset),
              col.sources.end());
    col.receives.push_back(
        Column::Receive{index, static_cast<std::uint32_t>(offset)});
  }
  // The paper's axiom ⊥_i ≺ e lifts every component to at least 1.
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (clock.at(i) == 0) clock.set(i, 1);
  }
  clock.tick(p);
  col.time.push_back(when);
  store_row(p, index, clock);
  if (when != kNoTime) last_timed_[p] = when;
  ++total_;
  return EventId{p, index};
}

EventId OnlineSystem::local(ProcessId p, std::int64_t when) {
  return advance(p, {}, when);
}

WireMessage OnlineSystem::send(ProcessId p, std::int64_t when) {
  const EventId e = advance(p, {}, when);
  return WireMessage{e, clocks_[p]};
}

EventId OnlineSystem::deliver(ProcessId p, const WireMessage& message,
                              std::int64_t when) {
  SYNCON_SPAN("online/deliver");
  SYNCON_REQUIRE(p < clocks_.size(),
                 "process id " + std::to_string(p) + " out of range (" +
                     std::to_string(clocks_.size()) + " processes)");
  check_deliverable(p, message);
  // The gap tracker remembers every source this receiver consumed
  // (witnessed ⟺ consumed at this level), so it answers for duplicates
  // whose dedup record compaction reclaimed too: those get the sentinel.
  if (gaps_[p].witnessed(message.source)) {
    ++duplicates_suppressed_;
    if (obs::enabled()) duplicates_counter().add();
    return EventId{p, receipt_of(p, message.source)};
  }
  const WireMessage msgs[] = {message};
  return advance(p, msgs, when);
}

EventId OnlineSystem::deliver_all(ProcessId p,
                                  std::span<const WireMessage> messages,
                                  std::int64_t when) {
  SYNCON_REQUIRE(p < clocks_.size(),
                 "process id " + std::to_string(p) + " out of range (" +
                     std::to_string(clocks_.size()) + " processes)");
  SYNCON_REQUIRE(!messages.empty(), "deliver_all needs at least one message");
  // Suppress messages already consumed by an earlier receive; duplicates
  // *within* the batch survive to advance(), whose witness() call collapses
  // them into a single source entry.
  std::vector<WireMessage> fresh;
  fresh.reserve(messages.size());
  for (const WireMessage& m : messages) {
    check_deliverable(p, m);
    if (gaps_[p].witnessed(m.source)) {
      ++duplicates_suppressed_;
      if (obs::enabled()) duplicates_counter().add();
      continue;
    }
    fresh.push_back(m);
  }
  if (fresh.empty()) {
    // Every message was a duplicate: idempotent no-op, answered with the
    // receive that first consumed the batch's first source ({p, 0} when
    // that record was reclaimed by compaction).
    return EventId{p, receipt_of(p, messages.front().source)};
  }
  return advance(p, fresh, when);
}

std::int64_t OnlineSystem::time_of(EventId e) const {
  const Column& col = live_column(e);
  return col.time[e.index - col.first];
}

const VectorClock& OnlineSystem::current_clock(ProcessId p) const {
  SYNCON_REQUIRE(p < clocks_.size(), "process id out of range");
  return clocks_[p];
}

StampView OnlineSystem::clock_of(EventId e) const {
  live_column(e);  // validates e
  return stamp(e.process, e.index);
}

EventIndex OnlineSystem::executed(ProcessId p) const {
  SYNCON_REQUIRE(p < log_.size(), "process id out of range");
  return log_[p].executed();
}

WireMessage OnlineSystem::wire_of(EventId e) const {
  SYNCON_REQUIRE(e.process < log_.size() && e.index >= 1 &&
                     e.index <= executed(e.process),
                 "unknown event");
  const EventIndex base = log_[e.process].base;
  if (e.index <= base) {
    // Reclaimed: answer with the checkpoint's surface event on e's process.
    // Its clock vouches for e and everything else inside the cut.
    return WireMessage{EventId{e.process, base},
                       checkpoint_.surface_clocks[e.process]};
  }
  return WireMessage{e, stamp(e.process, e.index).dense()};
}

bool OnlineSystem::already_delivered(ProcessId p, EventId source) const {
  SYNCON_REQUIRE(p < gaps_.size(), "process id out of range");
  // Every receipt was witnessed first, so the tracker answers for both.
  return gaps_[p].witnessed(source);
}

bool OnlineSystem::try_deliver(ProcessId p, const WireMessage& message,
                               std::int64_t when, EventId* receipt) {
  // Every contract check on the single-message deliver path (process range,
  // check_deliverable, the time floor) runs before the first state mutation,
  // so a rejection here leaves the system untouched.
  try {
    const EventId r = deliver(p, message, when);
    if (receipt != nullptr) *receipt = r;
    return true;
  } catch (const ContractViolation&) {
    ++quarantined_;
    if (obs::enabled()) {
      static obs::Counter& c = obs::MetricRegistry::global().counter(
          "syncon_online_quarantined_total");
      c.add();
    }
    obs::flight(obs::FlightKind::kQuarantine, p,
                obs::pack_event(message.source));
    obs::flight_auto_dump("quarantine");
    return false;
  }
}

void OnlineSystem::restore_checkpoint(const RetentionCheckpoint& checkpoint) {
  SYNCON_REQUIRE(total_ == 0,
                 "restore_checkpoint requires a fresh system (recovery "
                 "installs the snapshot before replaying the WAL tail)");
  SYNCON_REQUIRE(checkpoint.cut.size() == process_count() &&
                     checkpoint.surface_clocks.size() == process_count() &&
                     checkpoint.surface_times.size() == process_count(),
                 "checkpoint does not match this system's process count");
  checkpoint_ = checkpoint;
  for (ProcessId p = 0; p < process_count(); ++p) {
    SYNCON_REQUIRE(checkpoint.cut[p] >= 1,
                   "cut timestamps count the dummy (component >= 1)");
    log_[p].base = checkpoint.cut[p] - 1;
    log_[p].first = checkpoint.cut[p];
    clocks_[p] = checkpoint.surface_clocks[p];
    last_timed_[p] = checkpoint.surface_times[p];
    total_ += log_[p].base;
  }
  for (ProcessId p = 0; p < process_count(); ++p) {
    for (ProcessId q = 0; q < process_count(); ++q) {
      if (q == p || checkpoint.cut[q] <= 1) continue;
      // Everything inside the cut was durably witnessed by every consumer
      // (the compaction precondition), and any claim a below-cut message
      // made is bounded by the cut (clocks of cut members are <= the cut
      // componentwise): forgiving the cut restores both sides.
      gaps_[p].forgive(q, checkpoint.cut[q] - 1);
      // Re-claim what p's own pre-crash state vouched for (never p's own
      // component — a receiver does not track itself, exactly as advance()
      // skips it). Redundant under the precondition, but keeps the claimed
      // frontier consistent with the pre-crash tracker's.
      if (checkpoint.surface_clocks[p][q] > 0) {
        gaps_[p].claim(q, checkpoint.surface_clocks[p][q] - 1);
      }
    }
  }
}

bool OnlineSystem::restore_event(EventId e, const VectorClock& clock,
                                 std::span<const EventId> sources,
                                 std::int64_t time) {
  const ProcessId p = e.process;
  SYNCON_REQUIRE(p < clocks_.size() && e.index >= 1, "unknown event");
  SYNCON_REQUIRE(clock.size() == clocks_.size(),
                 "restored clock size does not match the process count");
  SYNCON_REQUIRE(std::uint64_t{clock[p]} == std::uint64_t{e.index} + 1,
                 "restored clock breaks the Fidge invariant (own component "
                 "counts the dummy: event (p, i) has clock[p] == i + 1)");
  for (const EventId& src : sources) {
    SYNCON_REQUIRE(src.process < clocks_.size() && src.process != p &&
                       src.index >= 1,
                   "restored event has a malformed source");
  }
  Column& col = log_[p];
  const bool fresh = e.index > col.executed();
  if (fresh) {
    SYNCON_REQUIRE(e.index == col.executed() + 1,
                   "WAL replay must restore each process's events in order");
    // Every check is done: from here on nothing throws but allocation.
    if (!sources.empty()) {
      col.receives.push_back(Column::Receive{
          e.index, static_cast<std::uint32_t>(col.sources.size())});
      col.sources.insert(col.sources.end(), sources.begin(), sources.end());
      // WAL records written before source-order canonicalization may carry
      // an arrival permutation; normalize on replay so restored and live
      // logs agree byte for byte.
      std::sort(col.sources.end() -
                    static_cast<std::ptrdiff_t>(sources.size()),
                col.sources.end());
    }
    col.time.push_back(time);
    // A row goes wherever the given clock differs from the row in force,
    // so clock_of returns exactly this clock, monotone or not.
    store_row(p, e.index, clock);
    clocks_[p] = clock;
    if (time != kNoTime) last_timed_[p] = time;
    ++total_;
  }
  // Witness/dedup state is refreshed even for events the snapshot already
  // covers: a below-cut receive can be the only witness of an above-cut
  // source, and pruning its dedup record must not resurrect the duplicate.
  for (const EventId& src : sources) {
    gaps_[p].witness(src);
    record_receipt(p, src, e.index);
  }
  for (ProcessId q = 0; q < clocks_.size(); ++q) {
    if (q == p || clock[q] == 0) continue;
    // The event's own clock dominates every message clock it merged, and
    // claimed frontiers are maxima — claiming it reproduces the original
    // claim state exactly.
    gaps_[p].claim(q, clock[q] - 1);
  }
  return fresh;
}

std::span<const EventId> OnlineSystem::sources_of(EventId e) const {
  const Column& col = live_column(e);
  const auto it = std::lower_bound(
      col.receives.begin(), col.receives.end(), e.index,
      [](const Column::Receive& r, EventIndex i) { return r.event < i; });
  if (it == col.receives.end() || it->event != e.index) return {};
  const std::size_t end = std::next(it) == col.receives.end()
                              ? col.sources.size()
                              : std::next(it)->offset;
  return std::span<const EventId>(col.sources)
      .subspan(it->offset, end - it->offset);
}

std::vector<EventId> OnlineSystem::missing_at(ProcessId p,
                                              std::size_t limit) const {
  SYNCON_REQUIRE(p < gaps_.size(), "process id out of range");
  return gaps_[p].missing(limit);
}

bool OnlineSystem::has_gap(ProcessId p) const {
  SYNCON_REQUIRE(p < gaps_.size(), "process id out of range");
  return gaps_[p].has_gap();
}

RetransmitRequest OnlineSystem::resync_request(ProcessId p,
                                               std::size_t limit) const {
  return RetransmitRequest{missing_at(p, limit)};
}

std::vector<WireMessage> OnlineSystem::serve(
    const RetransmitRequest& request) const {
  SYNCON_SPAN("online/resync_serve");
  std::vector<WireMessage> out;
  out.reserve(request.events.size());
  // At most one checkpoint-surface reply per process, no matter how many
  // reclaimed events the request names on it — one surface report covers
  // them all.
  std::vector<bool> surfaced(process_count(), false);
  for (const EventId& e : request.events) {
    if (e.process >= log_.size() || e.index < 1 ||
        e.index > executed(e.process)) {
      continue;  // never executed here — this log cannot serve it
    }
    if (e.index <= log_[e.process].base) {
      if (!surfaced[e.process]) {
        surfaced[e.process] = true;
        out.push_back(wire_of(e));
      }
      continue;
    }
    out.push_back(wire_of(e));
  }
  if (obs::enabled()) {
    auto& registry = obs::MetricRegistry::global();
    static obs::Counter& serves =
        registry.counter("syncon_online_resync_serves_total");
    static obs::Counter& served =
        registry.counter("syncon_online_resync_messages_total");
    serves.add(1);
    served.add(out.size());
  }
  obs::flight(obs::FlightKind::kResyncServe, obs::FlightRecord::kNoProcess,
              request.events.size(), out.size());
  return out;
}

VectorClock OnlineSystem::snapshot() const {
  VectorClock snap(process_count(), 0);
  for (ProcessId q = 0; q < process_count(); ++q) {
    snap.set(q, executed(q) + 1);
  }
  return snap;
}

std::size_t OnlineSystem::compact(const VectorClock& watermark) {
  SYNCON_SPAN("online/compact");
  SYNCON_REQUIRE(watermark.size() == process_count(),
                 "watermark has " + std::to_string(watermark.size()) +
                     " components, system has " +
                     std::to_string(process_count()) + " processes");
  std::size_t reclaimed = 0;
  for (ProcessId p = 0; p < process_count(); ++p) {
    // Counts form: component value c covers events (p, 1..c-1). Clamp to
    // [current checkpoint, executed + 1] — monotone, never past the log.
    ClockValue target = std::min<ClockValue>(
        watermark.at(p), static_cast<ClockValue>(executed(p)) + 1);
    if (target <= checkpoint_.cut.at(p)) continue;
    const EventIndex new_base = target - 1;
    Column& col = log_[p];
    // The cut's surface event on p is the last one reclaimed: remember its
    // clock and time so wire_of/serve can answer for everything below it.
    const StampView surface = stamp(p, new_base);
    for (std::size_t i = 0; i < surface.size(); ++i) {
      checkpoint_.surface_clocks[p].set(i, surface.at(i));
    }
    checkpoint_.surface_times[p] = col.time[new_base - col.first];
    checkpoint_.cut.set(p, target);
    reclaimed += new_base - col.base;
    col.base = new_base;
    col.drop_dead_prefix(process_count());
  }
  if (reclaimed == 0) return 0;
  checkpoint_.reclaimed_total += reclaimed;
  ++checkpoint_.sequence;
  // Dedup records for sources inside the cut are reclaimed with the log;
  // deliver() falls back to the gap tracker's witnessed() for them. Each
  // sender's list is sorted, so its covered part is one prefix, and a list
  // whose first source is outside the cut has none.
  const std::span<const ClockValue> cut = checkpoint_.cut.values();
  auto list = receipts_.begin();
  for (ProcessId p = 0; p < process_count(); ++p) {
    for (ProcessId q = 0; q < process_count(); ++q, ++list) {
      if (list->empty() || list->front().source >= cut[q]) continue;
      list->erase(list->begin(), first_receipt(*list, cut[q]));
    }
  }
  if (obs::enabled()) {
    auto& registry = obs::MetricRegistry::global();
    static obs::Counter& reclaimed_total =
        registry.counter("syncon_online_reclaimed_events_total");
    static obs::Counter& compactions =
        registry.counter("syncon_online_compactions_total");
    static obs::Gauge& live =
        registry.gauge("syncon_online_live_log_events");
    static obs::Gauge& peak =
        registry.gauge("syncon_online_live_log_peak_events");
    static obs::Gauge& lag =
        registry.gauge("syncon_online_watermark_lag_events");
    reclaimed_total.add(reclaimed);
    compactions.add(1);
    const std::size_t live_now = live_log_events();
    live.set(static_cast<std::int64_t>(live_now));
    peak.set_max(static_cast<std::int64_t>(live_now));
    lag.set(static_cast<std::int64_t>(
        watermark_lag(checkpoint_.cut, snapshot())));
  }
  obs::flight(obs::FlightKind::kCompact, obs::FlightRecord::kNoProcess,
              reclaimed, live_log_events());
  return reclaimed;
}

VectorClock OnlineSystem::retention_watermark() const {
  VectorClock w(process_count(), 0);
  for (ProcessId p = 0; p < process_count(); ++p) {
    if (process_count() == 1) {
      // No other consumer exists; everything executed is reclaimable.
      w.set(p, static_cast<ClockValue>(executed(p)) + 1);
      continue;
    }
    EventIndex floor = std::numeric_limits<EventIndex>::max();
    for (ProcessId q = 0; q < process_count(); ++q) {
      if (q == p) continue;
      floor = std::min(floor, gaps_[q].contiguous_prefix(p));
    }
    w.set(p, floor + 1);  // counts form: covers (p, 1..floor)
  }
  return w;
}

std::size_t OnlineSystem::live_log_events() const {
  std::size_t n = 0;
  for (const Column& col : log_) n += col.executed() - col.base;
  return n;
}

EventIndex OnlineSystem::reclaimed_before(ProcessId p) const {
  SYNCON_REQUIRE(p < log_.size(), "process id out of range");
  return log_[p].base;
}

bool OnlineSystem::is_live(EventId e) const {
  SYNCON_REQUIRE(e.process < log_.size(), "process id out of range");
  return e.index > log_[e.process].base &&
         e.index <= log_[e.process].executed();
}

Execution OnlineSystem::to_execution() const {
  SYNCON_REQUIRE(reclaimed_events() == 0,
                 "a compacted system cannot materialize its full execution (" +
                     std::to_string(checkpoint_.reclaimed_total) +
                     " events were reclaimed)");
  ExecutionBuilder builder(process_count());
  // Emit events in a topological order: release the next event of each
  // process once all its message sources are already emitted.
  std::vector<std::size_t> next(process_count(), 1);
  std::vector<std::size_t> emitted(process_count(), 0);
  std::size_t remaining = total_;
  while (remaining > 0) {
    bool progress = false;
    for (ProcessId p = 0; p < process_count(); ++p) {
      while (next[p] <= executed(p)) {
        const std::span<const EventId> sources =
            sources_of(EventId{p, static_cast<EventIndex>(next[p])});
        bool ready = true;
        for (const EventId& src : sources) {
          if (emitted[src.process] < src.index) {
            ready = false;
            break;
          }
        }
        if (!ready) break;
        if (sources.empty()) {
          builder.local(p);
        } else {
          builder.receive_from(p, sources);
        }
        emitted[p] = next[p];
        ++next[p];
        --remaining;
        progress = true;
      }
    }
    SYNCON_ASSERT(progress || remaining == 0,
                  "online log is not causally consistent");
  }
  return builder.build();
}

OnlineSystem replay(const Execution& exec) {
  OnlineSystem system(exec.process_count());
  // A send and a local event advance the log alike; a receive re-reads each
  // source's wire form from the log, which keeps every replayed event.
  for (const EventId& e : exec.topological_order()) {
    const auto incoming = exec.incoming(e);
    EventId replayed;
    if (!incoming.empty()) {
      std::vector<WireMessage> msgs;
      msgs.reserve(incoming.size());
      for (const EventId& src : incoming) msgs.push_back(system.wire_of(src));
      replayed = system.deliver_all(e.process, msgs);
    } else {
      replayed = system.local(e.process);
    }
    SYNCON_ASSERT(replayed == e, "replay must preserve event ids");
  }
  return system;
}

}  // namespace syncon
