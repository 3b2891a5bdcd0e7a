#include "sim/soak.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

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
  std::vector<EventId> events;
};

/// Cycles before an unconsumed send on a faulty application ring is
/// re-shipped from wire_of — the application-level retransmission that
/// keeps the ring converging under drops.
constexpr std::uint64_t kRetransmitAfter = 4;

/// Runs `workload`, applying every op to `core` and appending it to `*ops`
/// when given; `on_cycle` (if set) runs at the end of every cycle. Fills
/// the result's executed-event, compaction and channel counters.
SoakResult run_ring(const TenantWorkload& workload, TenantSessionCore& core,
                    std::vector<TenantOp>* ops,
                    const std::function<void(std::uint64_t)>& on_cycle) {
  const std::size_t n_proc = workload.processes;
  SYNCON_REQUIRE(n_proc >= 2, "the ring needs at least two processes");
  SYNCON_REQUIRE(workload.action_every > 0 && workload.recover_every > 0,
                 "ring cadences must be positive");

  SoakResult result;
  OnlineSystem sys(n_proc);  // the application's authoritative execution

  std::optional<FaultyNetwork> app;
  if (workload.app_link) {
    FaultPlan plan;
    plan.link = *workload.app_link;
    plan.seed = workload.seed;
    app.emplace(n_proc, plan);
  }

  // One lossy report channel per process, each with its own RNG stream.
  std::vector<FaultyChannel> reports;
  reports.reserve(n_proc);
  for (std::size_t p = 0; p < n_proc; ++p) {
    reports.emplace_back(workload.report_link,
                         workload.seed + 0x9e3779b9u * (p + 1));
  }

  std::int64_t stamp = 0;  // strictly increasing physical time, µs
  TimePoint now = 0;
  constexpr Duration kCycleStep = 8;

  // Faulty rings: sends not yet consumed by the ring successor, oldest
  // first. Their indices pin the application log (wire_of must stay
  // servable until delivery).
  struct OutstandingSend {
    EventId source;
    std::uint64_t last_shipped_cycle = 0;
  };
  std::vector<std::deque<OutstandingSend>> outstanding(app ? n_proc : 0);

  // Event → action label, while the pair is alive.
  std::unordered_map<EventId, std::string> label_of;
  std::unordered_map<std::string, std::size_t> expected_events;
  std::deque<PendingPair> pairs;
  std::uint64_t next_pair = 0;
  std::size_t forgotten = 0;  // pairs popped off the front of `pairs`

  const auto emit = [&](TenantOp op) {
    core.apply(op);
    if (ops != nullptr) ops->push_back(std::move(op));
  };

  // Journals an executed event and offers its report to the feed.
  const auto emit_event = [&](EventId e, const std::string& label) {
    TenantOp op;
    op.kind = TenantOp::Kind::kEvent;
    op.label = label;
    op.message = {e, sys.clock_of(e).dense()};
    const std::span<const EventId> sources = sys.sources_of(e);
    op.sources.assign(sources.begin(), sources.end());
    op.time = sys.time_of(e);
    emit(std::move(op));
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

  // Head-of-line pair processing: complete the front pairs whose reports
  // have all been folded, register their watch, and forget the front pairs
  // whose watch has fired Definite.
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

    // Open a new tracked pair: two locals per action, spread over the ring.
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
        }
      }
      pairs.push_back(std::move(pair));
    }

    // Ring traffic: every process sends once to its successor. A reliable
    // ring delivers at once; a faulty one ships through the network.
    for (ProcessId p = 0; p < n_proc; ++p) {
      const ProcessId succ = (p + 1) % static_cast<ProcessId>(n_proc);
      const WireMessage w = sys.send(p, ++stamp);
      emit_event(w.source, std::string());
      if (app) {
        app->push(p, succ, w, now);
        outstanding[p].push_back({w.source, cycle});
      } else {
        emit_event(sys.deliver(succ, w, ++stamp), std::string());
      }
    }

    if (app) {
      // Pump the application network; fresh receives are journaled too.
      for (ProcessId p = 0; p < n_proc; ++p) {
        for (const Arrival& a : app->pop_ready(p, now)) {
          if (sys.already_delivered(p, a.message.source)) {
            sys.deliver(p, a.message, OnlineSystem::kNoTime);  // counted dup
            continue;
          }
          emit_event(sys.deliver(p, a.message, ++stamp), std::string());
        }
      }
      // Drop consumed sends off the outstanding queues, re-ship the ones
      // the faults have eaten.
      for (ProcessId p = 0; p < n_proc; ++p) {
        const ProcessId succ = (p + 1) % static_cast<ProcessId>(n_proc);
        auto& queue = outstanding[p];
        while (!queue.empty() &&
               sys.already_delivered(succ, queue.front().source)) {
          queue.pop_front();
        }
        for (OutstandingSend& send : queue) {
          if (cycle - send.last_shipped_cycle >= kRetransmitAfter &&
              !sys.already_delivered(succ, send.source)) {
            app->push(p, succ, sys.wire_of(send.source), now);
            send.last_shipped_cycle = cycle;
          }
        }
      }
    }

    // Pump the report feed into the session.
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

    if (workload.compact_every > 0 && cycle > 0 &&
        cycle % workload.compact_every == 0) {
      const OnlineSystem& replica = core.system();
      result.live_log_peak =
          std::max(result.live_log_peak, replica.live_log_events());
      if (core.compact_at_pin() > 0) ++result.compactions;
      result.live_log_samples.push_back(replica.live_log_events());
      // The application log keeps only what it may still re-ship: from
      // each process's oldest unconsumed send on.
      VectorClock app_pin = sys.snapshot();
      for (ProcessId p = 0; p < outstanding.size(); ++p) {
        if (!outstanding[p].empty()) {
          app_pin.set(p, outstanding[p].front().source.index);
        }
      }
      sys.compact(app_pin);
    }

    if (on_cycle) on_cycle(cycle);
  }

  // Drain and settle: the final checkpoint's resync recovers every dropped
  // report (the replica holds the full journal above the monitor's pin), so
  // every pair completes and fires Definite.
  for (ProcessId p = 0; p < n_proc; ++p) {
    for (const Arrival& a : reports[p].drain()) emit_report(a.message);
  }
  emit_checkpoint();
  advance_pairs();
  for (int round = 0; round < 8 && !pairs.empty(); ++round) {
    emit_checkpoint();
    advance_pairs();
  }
  SYNCON_REQUIRE(pairs.empty(), "the ring failed to settle");

  result.executed_events = sys.total_executed();
  if (app) result.app_stats = app->stats();
  for (const FaultyChannel& ch : reports) result.report_stats += ch.stats();
  return result;
}

}  // namespace

SoakResult run_soak(const SoakConfig& config) {
  const TenantWorkload& workload = config.workload;
  TenantSessionCore core(workload.processes, workload.resync_chunk);

  const bool flight_was_enabled = obs::flight_enabled();
  if (config.capture_observability) {
    core.set_latency_tracking(true);
    obs::set_flight_enabled(true);
  }

  SoakResult result = run_ring(workload, core, nullptr, config.on_cycle);

  const OnlineSystem& replica = core.system();
  const OnlineMonitor& monitor = core.monitor();
  result.reclaimed_events = replica.reclaimed_events();
  result.live_log_final = replica.live_log_events();
  result.live_log_peak = std::max(result.live_log_peak, result.live_log_final);
  result.definite_verdicts = core.definite_verdicts();
  result.definite_fires = monitor.definite_fires();
  result.pending_fires = monitor.pending_fires();
  result.duplicate_reports = monitor.duplicate_reports();
  result.resync_rounds = core.resync_rounds();

  if (result.reclaimed_events > 0) {
    // A monitor born after compaction: the replica's snapshot claims
    // everything ever executed, so its resync crosses the watermark and is
    // served from the checkpoint surface.
    OnlineMonitor late(workload.processes);
    late.checkpoint(replica.snapshot());
    late.resync(replica, workload.resync_chunk, [&](const WireMessage& reply) {
      if (!replica.is_live(reply.source)) ++result.surface_replies;
      late.observe(reply);
    });
    result.late_joiner_converged = late.missing_report_count() == 0;
  }

  if (config.capture_observability) {
    result.waterfalls.assign(monitor.waterfalls().begin(),
                             monitor.waterfalls().end());
    result.flight = obs::FlightRecorder::global().dump();
    if (workload.compact_every == 0) {
      // Only an uncompacted log can materialize its full execution — the
      // causal-trace exporters need every event.
      result.execution =
          std::make_shared<const Execution>(replica.to_execution());
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
      resync_rounds_ += monitor_.resync(
          sys_, resync_chunk_, [this](const WireMessage& reply) {
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
  TenantScript script;
  script.processes = workload.processes;
  script.resync_chunk = workload.resync_chunk;
  // The generation-time reference consumer: fed every op as it is emitted,
  // so script.reference_verdicts is by construction the standalone outcome.
  TenantSessionCore core(workload.processes, workload.resync_chunk);
  script.executed_events =
      run_ring(workload, core, &script.ops, nullptr).executed_events;
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
