#include "sim/soak.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "cuts/watermark.hpp"
#include "online/online_monitor.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

/// One tracked action pair moving through its lifecycle. Pairs are
/// processed strictly head-of-line (complete / forget in opening order) so
/// the Definite-firing sequence is the same no matter how the report faults
/// interleave — the property the identity assertions rely on.
struct PendingPair {
  std::uint64_t n = 0;
  std::string a, b;
  bool completed = false;
  bool definite = false;  // set by the watch callback
  std::vector<EventId> events;
};

}  // namespace

SoakResult run_soak(const SoakConfig& config) {
  const std::size_t n_proc = config.processes;
  SYNCON_REQUIRE(n_proc >= 2, "the soak ring needs at least two processes");
  SYNCON_REQUIRE(config.action_every > 0 && config.recover_every > 0,
                 "soak cadences must be positive");
  SYNCON_REQUIRE(config.resync_chunk > 0, "resync chunk must be positive");

  SoakResult result;
  OnlineSystem sys(n_proc);
  OnlineMonitor monitor(n_proc);  // feed-only: sees reports, not the system

  const bool flight_was_enabled = obs::flight_enabled();
  if (config.capture_observability) {
    monitor.set_latency_tracking(true);
    obs::set_flight_enabled(true);
  }

  FaultPlan app_plan;
  app_plan.link = config.app_link;
  app_plan.seed = config.seed;
  FaultyNetwork app(n_proc, app_plan);

  // One lossy report channel per process, each with its own RNG stream.
  std::vector<FaultyChannel> reports;
  reports.reserve(n_proc);
  for (std::size_t p = 0; p < n_proc; ++p) {
    reports.emplace_back(config.report_link,
                         config.seed + 0x9e3779b9u * (p + 1));
  }

  std::int64_t stamp = 0;  // strictly increasing physical time, µs
  TimePoint now = 0;
  constexpr Duration kCycleStep = 8;

  // Application-level reliability: sends not yet consumed by the ring
  // successor, oldest first. Their indices pin the app side of the
  // watermark (wire_of must stay servable until delivery).
  struct OutstandingSend {
    EventId source;
    std::uint64_t last_shipped_cycle = 0;
  };
  std::vector<std::deque<OutstandingSend>> outstanding(n_proc);

  // Event → action label, while the pair is alive.
  std::unordered_map<EventId, std::string> label_of;
  std::unordered_map<std::string, std::size_t> expected_events;
  std::deque<PendingPair> pairs;
  std::uint64_t next_pair = 0;

  const auto emit_report = [&](EventId e) {
    reports[e.process].push(sys.wire_of(e), now);
  };

  const auto route_report = [&](const WireMessage& r) {
    const auto it = label_of.find(r.source);
    if (it != label_of.end() &&
        (monitor.is_open(it->second) || monitor.is_complete(it->second))) {
      monitor.ingest(it->second, r);
    } else {
      monitor.observe(r);
    }
  };

  const auto recover = [&]() {
    monitor.checkpoint(sys.snapshot());
    result.resync_rounds +=
        monitor.resync(sys, config.resync_chunk, route_report);
  };

  // Head-of-line pair processing: complete the front pairs whose reports
  // have all been folded, register their watch, and forget the front pairs
  // whose watch has fired Definite.
  const auto advance_pairs = [&]() {
    for (PendingPair& pair : pairs) {
      if (pair.completed) continue;
      const bool ready =
          monitor.is_open(pair.a) && monitor.is_open(pair.b) &&
          monitor.recorded_events(pair.a) == expected_events[pair.a] &&
          monitor.recorded_events(pair.b) == expected_events[pair.b];
      if (!ready) break;  // strictly in opening order — see PendingPair
      monitor.complete(pair.a);
      monitor.complete(pair.b);
      pair.completed = true;
      bool* definite = &pair.definite;
      std::vector<std::string>* log = &result.definite_verdicts;
      monitor.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, pair.a,
                    pair.b,
                    [definite, log](const std::string& x, const std::string& y,
                                    bool holds, Confidence conf) {
                      if (conf != Confidence::Definite) return;
                      *definite = true;
                      log->push_back(x + "|" + y + "|" +
                                     (holds ? "holds" : "fails"));
                    });
    }
    while (!pairs.empty() && pairs.front().definite) {
      const PendingPair& pair = pairs.front();
      monitor.forget(pair.a);
      monitor.forget(pair.b);
      expected_events.erase(pair.a);
      expected_events.erase(pair.b);
      for (const EventId& e : pair.events) label_of.erase(e);
      pairs.pop_front();
    }
  };

  for (std::uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
    now += kCycleStep;

    // Open a new tracked pair: two locals per action, spread over the ring.
    if (cycle % config.action_every == 0) {
      PendingPair pair;
      pair.n = next_pair++;
      pair.a = "A#" + std::to_string(pair.n);
      pair.b = "B#" + std::to_string(pair.n);
      monitor.begin(pair.a);
      monitor.begin(pair.b);
      const ProcessId pa = static_cast<ProcessId>(pair.n % n_proc);
      const ProcessId offsets[2][2] = {{0, 1}, {2, 3}};
      const std::string* labels[2] = {&pair.a, &pair.b};
      for (int which = 0; which < 2; ++which) {
        for (const ProcessId off : offsets[which]) {
          const ProcessId p = (pa + off) % static_cast<ProcessId>(n_proc);
          const EventId e = sys.local(p, ++stamp);
          label_of.emplace(e, *labels[which]);
          pair.events.push_back(e);
          ++expected_events[*labels[which]];
          emit_report(e);
        }
      }
      pairs.push_back(std::move(pair));
    }

    // Ring traffic: every process sends once to its successor.
    for (ProcessId p = 0; p < n_proc; ++p) {
      const ProcessId succ = (p + 1) % static_cast<ProcessId>(n_proc);
      const WireMessage w = sys.send(p, ++stamp);
      app.push(p, succ, w, now);
      outstanding[p].push_back({w.source, cycle});
      emit_report(w.source);
    }

    // Pump the application network; fresh receives generate reports too.
    for (ProcessId p = 0; p < n_proc; ++p) {
      for (const Arrival& a : app.pop_ready(p, now)) {
        if (sys.already_delivered(p, a.message.source)) {
          sys.deliver(p, a.message, OnlineSystem::kNoTime);  // counted dup
          continue;
        }
        const EventId e = sys.deliver(p, a.message, ++stamp);
        emit_report(e);
      }
    }

    // Harness-level reliability: drop consumed sends off the outstanding
    // queues, re-ship the ones the faults have eaten.
    for (ProcessId p = 0; p < n_proc; ++p) {
      const ProcessId succ = (p + 1) % static_cast<ProcessId>(n_proc);
      auto& queue = outstanding[p];
      while (!queue.empty() &&
             sys.already_delivered(succ, queue.front().source)) {
        queue.pop_front();
      }
      for (OutstandingSend& send : queue) {
        if (cycle - send.last_shipped_cycle >= config.retransmit_after &&
            !sys.already_delivered(succ, send.source)) {
          app.push(p, succ, sys.wire_of(send.source), now);
          send.last_shipped_cycle = cycle;
        }
      }
    }

    // Pump the report feed into the monitor.
    for (ProcessId p = 0; p < n_proc; ++p) {
      for (const Arrival& a : reports[p].pop_ready(now)) {
        route_report(a.message);
      }
    }
    advance_pairs();

    if (cycle > 0 && cycle % config.recover_every == 0) {
      recover();
      advance_pairs();
    }

    if (config.compact_every > 0 && cycle > 0 &&
        cycle % config.compact_every == 0) {
      result.live_log_peak =
          std::max(result.live_log_peak, sys.live_log_events());
      VectorClock app_pin(n_proc, 0);
      for (ProcessId p = 0; p < n_proc; ++p) {
        app_pin.set(p, outstanding[p].empty()
                           ? static_cast<ClockValue>(sys.executed(p)) + 1
                           : outstanding[p].front().source.index);
      }
      const VectorClock pins[] = {monitor.watermark_pin(), app_pin};
      const std::size_t reclaimed = sys.compact(low_watermark(pins));
      if (reclaimed > 0) ++result.compactions;
      result.live_log_samples.push_back(sys.live_log_events());
    }

    if (config.on_cycle) config.on_cycle(cycle);
  }

  // Drain: one final recovery pass settles every in-flight pair.
  for (ProcessId p = 0; p < n_proc; ++p) {
    for (const Arrival& a : reports[p].drain()) route_report(a.message);
  }
  recover();
  advance_pairs();

  result.executed_events = sys.total_executed();
  result.reclaimed_events = sys.reclaimed_events();
  result.live_log_final = sys.live_log_events();
  result.live_log_peak = std::max(result.live_log_peak, result.live_log_final);
  result.definite_fires = monitor.definite_fires();
  result.pending_fires = monitor.pending_fires();
  result.duplicate_reports = monitor.duplicate_reports();
  result.app_stats = app.stats();
  for (const FaultyChannel& ch : reports) result.report_stats += ch.stats();

  if (config.late_joiner_probe) {
    // A monitor born after compaction: the authoritative snapshot claims
    // everything ever executed, so its resync crosses the watermark and is
    // served from the checkpoint surface.
    OnlineMonitor late(n_proc);
    late.checkpoint(sys.snapshot());
    late.resync(sys, config.resync_chunk, [&](const WireMessage& reply) {
      if (!sys.is_live(reply.source)) ++result.surface_replies;
      late.observe(reply);
    });
    result.late_joiner_converged = late.missing_report_count() == 0;
  }

  if (config.capture_observability) {
    result.waterfalls.assign(monitor.waterfalls().begin(),
                             monitor.waterfalls().end());
    result.flight = obs::FlightRecorder::global().dump();
    if (config.compact_every == 0) {
      // Only an uncompacted log can materialize its full execution — the
      // causal-trace exporters need every event.
      result.execution =
          std::make_shared<const Execution>(sys.to_execution());
    }
    obs::set_flight_enabled(flight_was_enabled);
  }

  return result;
}

// --- multi-tenant tenant scripts ---------------------------------------------

TenantSessionCore::TenantSessionCore(std::size_t processes,
                                     std::size_t resync_chunk)
    : sys_(processes), monitor_(processes), resync_chunk_(resync_chunk) {
  SYNCON_REQUIRE(resync_chunk_ > 0, "resync chunk must be positive");
}

void TenantSessionCore::route_report(const std::string& label,
                                     const WireMessage& report) {
  if (!label.empty() &&
      (monitor_.is_open(label) || monitor_.is_complete(label))) {
    monitor_.try_ingest(label, report);
  } else {
    monitor_.try_observe(report);
  }
}

void TenantSessionCore::apply(const TenantOp& op) {
  try {
    apply_checked(op);
  } catch (const ContractViolation&) {
    // A corrupted or spliced stream must degrade this tenant only — count
    // and carry on, exactly like the monitor's own wire quarantine.
    ++quarantined_ops_;
  }
}

void TenantSessionCore::apply_checked(const TenantOp& op) {
  switch (op.kind) {
    case TenantOp::Kind::kBegin:
      monitor_.begin(op.label);
      break;
    case TenantOp::Kind::kWatch:
      monitor_.watch(op.relation, op.label, op.label2,
                     [this](const std::string& x, const std::string& y,
                            bool holds, Confidence conf) {
                       if (conf != Confidence::Definite) return;
                       verdicts_.push_back(x + "|" + y + "|" +
                                           (holds ? "holds" : "fails"));
                     });
      break;
    case TenantOp::Kind::kComplete:
      monitor_.complete(op.label);
      break;
    case TenantOp::Kind::kForget: {
      monitor_.forget(op.label);
      const auto it = events_of_label_.find(op.label);
      if (it != events_of_label_.end()) {
        for (const EventId& e : it->second) label_of_.erase(e);
        events_of_label_.erase(it);
      }
      break;
    }
    case TenantOp::Kind::kEvent:
      sys_.restore_event(op.message.source, op.message.clock, op.sources,
                         op.time);
      if (!op.label.empty()) {
        label_of_[op.message.source] = op.label;
        events_of_label_[op.label].push_back(op.message.source);
      }
      break;
    case TenantOp::Kind::kReport:
      route_report(op.label, op.message);
      break;
    case TenantOp::Kind::kCheckpoint: {
      monitor_.checkpoint(op.message.clock);
      // Served from the replica. On a degraded stream (quarantined journal
      // frames) the replica cannot serve everything the checkpoint claims;
      // resync requests only what it holds, and the rest stays open
      // (PendingGap).
      monitor_.resync(sys_, resync_chunk_, [this](const WireMessage& reply) {
        const auto it = label_of_.find(reply.source);
        route_report(it == label_of_.end() ? std::string() : it->second,
                     reply);
      });
      break;
    }
  }
}

std::size_t TenantSessionCore::compact_at_pin() {
  return sys_.compact(monitor_.watermark_pin());
}

TenantScript generate_tenant_script(const TenantWorkload& workload) {
  const std::size_t n_proc = workload.processes;
  SYNCON_REQUIRE(n_proc >= 2, "a tenant ring needs at least two processes");
  SYNCON_REQUIRE(workload.action_every > 0 && workload.recover_every > 0,
                 "tenant cadences must be positive");

  TenantScript script;
  script.processes = n_proc;
  script.resync_chunk = workload.resync_chunk;

  OnlineSystem sys(n_proc);  // the tenant's authoritative execution
  // The generation-time reference consumer: fed every op as it is emitted,
  // so script.reference_verdicts is by construction the standalone outcome.
  TenantSessionCore core(n_proc, workload.resync_chunk);

  std::vector<FaultyChannel> reports;
  reports.reserve(n_proc);
  for (std::size_t p = 0; p < n_proc; ++p) {
    reports.emplace_back(workload.report_link,
                         workload.seed + 0x9e3779b9u * (p + 1));
  }

  std::int64_t stamp = 0;
  TimePoint now = 0;
  constexpr Duration kCycleStep = 8;

  std::unordered_map<EventId, std::string> label_of;
  std::unordered_map<std::string, std::size_t> expected_events;
  std::deque<PendingPair> pairs;
  std::uint64_t next_pair = 0;
  std::size_t forgotten = 0;  // pairs popped off the front of `pairs`

  const auto emit = [&](TenantOp op) {
    core.apply(op);
    script.ops.push_back(std::move(op));
  };

  const auto emit_event = [&](EventId e, const std::string& label) {
    TenantOp op;
    op.kind = TenantOp::Kind::kEvent;
    op.label = label;
    op.message = {e, sys.clock_of(e).dense()};
    const std::span<const EventId> sources = sys.sources_of(e);
    op.sources.assign(sources.begin(), sources.end());
    op.time = sys.time_of(e);
    emit(std::move(op));
  };

  const auto offer_report = [&](EventId e) {
    reports[e.process].push(sys.wire_of(e), now);
  };

  const auto emit_report = [&](const WireMessage& r) {
    TenantOp op;
    op.kind = TenantOp::Kind::kReport;
    op.message = r;
    const auto it = label_of.find(r.source);
    if (it != label_of.end()) op.label = it->second;
    emit(std::move(op));
  };

  const auto emit_label_op = [&](TenantOp::Kind kind,
                                 const std::string& label) {
    TenantOp op;
    op.kind = kind;
    op.label = label;
    emit(std::move(op));
  };

  const auto emit_checkpoint = [&]() {
    TenantOp op;
    op.kind = TenantOp::Kind::kCheckpoint;
    op.message.clock = sys.snapshot();
    emit(std::move(op));
  };

  const auto advance_pairs = [&]() {
    for (PendingPair& pair : pairs) {
      if (pair.completed) continue;
      const OnlineMonitor& monitor = core.monitor();
      const bool ready =
          monitor.is_open(pair.a) && monitor.is_open(pair.b) &&
          monitor.recorded_events(pair.a) == expected_events[pair.a] &&
          monitor.recorded_events(pair.b) == expected_events[pair.b];
      if (!ready) break;  // strictly in opening order — see PendingPair
      emit_label_op(TenantOp::Kind::kComplete, pair.a);
      emit_label_op(TenantOp::Kind::kComplete, pair.b);
      pair.completed = true;
      TenantOp watch;
      watch.kind = TenantOp::Kind::kWatch;
      watch.relation = {Relation::R3, ProxyKind::Begin, ProxyKind::End};
      watch.label = pair.a;
      watch.label2 = pair.b;
      emit(std::move(watch));
    }
    // A pair's watch fires Definite exactly once (its reports are all
    // folded before it completes; later copies are duplicates), and
    // Definite firings follow registration order (a closing gap re-fires
    // the PendingGap watches in list order). So the front pair has fired
    // once there are more Definite verdicts than forgotten pairs.
    while (!pairs.empty() && core.definite_verdicts().size() > forgotten) {
      const PendingPair& pair = pairs.front();
      emit_label_op(TenantOp::Kind::kForget, pair.a);
      emit_label_op(TenantOp::Kind::kForget, pair.b);
      expected_events.erase(pair.a);
      expected_events.erase(pair.b);
      for (const EventId& e : pair.events) label_of.erase(e);
      pairs.pop_front();
      ++forgotten;
    }
  };

  for (std::uint64_t cycle = 0; cycle < workload.cycles; ++cycle) {
    now += kCycleStep;

    if (cycle % workload.action_every == 0) {
      PendingPair pair;
      pair.n = next_pair++;
      pair.a = "A#" + std::to_string(pair.n);
      pair.b = "B#" + std::to_string(pair.n);
      emit_label_op(TenantOp::Kind::kBegin, pair.a);
      emit_label_op(TenantOp::Kind::kBegin, pair.b);
      const ProcessId pa = static_cast<ProcessId>(pair.n % n_proc);
      const ProcessId offsets[2][2] = {{0, 1}, {2, 3}};
      const std::string* labels[2] = {&pair.a, &pair.b};
      for (int which = 0; which < 2; ++which) {
        for (const ProcessId off : offsets[which]) {
          const ProcessId p = (pa + off) % static_cast<ProcessId>(n_proc);
          const EventId e = sys.local(p, ++stamp);
          label_of.emplace(e, *labels[which]);
          pair.events.push_back(e);
          ++expected_events[*labels[which]];
          emit_event(e, *labels[which]);
          offer_report(e);
        }
      }
      pairs.push_back(std::move(pair));
    }

    // Ring traffic on a reliable application network: the tenant's journal
    // stream is its WAL, so the execution itself is never in question —
    // only the report feed is lossy.
    for (ProcessId p = 0; p < n_proc; ++p) {
      const ProcessId succ = (p + 1) % static_cast<ProcessId>(n_proc);
      const WireMessage w = sys.send(p, ++stamp);
      emit_event(w.source, std::string());
      offer_report(w.source);
      const EventId e = sys.deliver(succ, w, ++stamp);
      emit_event(e, std::string());
      offer_report(e);
    }

    for (ProcessId p = 0; p < n_proc; ++p) {
      for (const Arrival& a : reports[p].pop_ready(now)) {
        emit_report(a.message);
      }
    }
    advance_pairs();

    if (cycle > 0 && cycle % workload.recover_every == 0) {
      emit_checkpoint();
      advance_pairs();
    }
  }

  // Drain and settle: the final checkpoint's resync recovers every dropped
  // report (the reference replica holds the full journal), so every pair
  // completes and fires Definite.
  for (ProcessId p = 0; p < n_proc; ++p) {
    for (const Arrival& a : reports[p].drain()) emit_report(a.message);
  }
  emit_checkpoint();
  advance_pairs();
  for (int round = 0; round < 8 && !pairs.empty(); ++round) {
    emit_checkpoint();
    advance_pairs();
  }
  SYNCON_REQUIRE(pairs.empty(), "tenant generation failed to settle");

  script.executed_events = sys.total_executed();
  script.reference_verdicts = core.definite_verdicts();
  script.reference_quarantined = core.quarantined();
  return script;
}

std::vector<std::string> run_tenant_script(const TenantScript& script) {
  TenantSessionCore core(script.processes, script.resync_chunk);
  for (const TenantOp& op : script.ops) core.apply(op);
  return core.definite_verdicts();
}

}  // namespace syncon
