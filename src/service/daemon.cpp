#include "service/daemon.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon::service {

namespace {

/// Submit-to-applied latency of one frame, recorded on the applying
/// shard's thread. Only called with telemetry on.
void record_ingest_latency(std::uint64_t latency_us) {
  auto& registry = obs::MetricRegistry::global();
  static obs::Histogram& latency = registry.histogram(
      "syncon_service_ingest_latency_us",
      obs::HistogramSpec::exponential(1.0, 1048576.0));
  latency.record(static_cast<double>(latency_us), obs::current_thread_slot());
}

/// The labeled per-tenant gauge families. The registry keeps a name until
/// it is removed, so release() and the destructor drop a tenant's three
/// series.
constexpr std::array<const char*, 3> kTenantGauges = {
    "syncon_service_tenant_live_log", "syncon_service_tenant_verdicts",
    "syncon_service_tenant_quarantined"};

std::string tenant_gauge(const char* family, std::uint64_t tenant) {
  return std::string(family) + "{tenant=\"" + std::to_string(tenant) + "\"}";
}

void remove_tenant_gauges(std::uint64_t tenant) {
  for (const char* family : kTenantGauges) {
    obs::MetricRegistry::global().remove_gauge(tenant_gauge(family, tenant));
  }
}

}  // namespace

MonitorDaemon::MonitorDaemon(const DaemonOptions& options, ThreadPool& pool)
    : options_(options), pool_(pool) {
  SYNCON_REQUIRE(options_.shards > 0, "the daemon needs at least one shard");
  SYNCON_REQUIRE(options_.queue_capacity > 0,
                 "shard queues need room for at least one frame");
  const std::size_t n = options_.shards;
  const std::size_t budget = options_.memory_budget_events;
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    // budget / shards each, one more for the lowest-numbered budget % shards
    // shards: the shares sum to the budget.
    shard->budget_share = budget == 0
                              ? std::numeric_limits<std::size_t>::max()
                              : budget / n + (s < budget % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

MonitorDaemon::~MonitorDaemon() {
  for (const auto& shard : shards_) {
    for (const auto& entry : shard->sessions) remove_tenant_gauges(entry.first);
  }
}

std::string MonitorDaemon::journal_object(std::uint64_t tenant) {
  return "tenant-" + std::to_string(tenant);
}

MonitorDaemon::TenantSession* MonitorDaemon::Shard::find(
    std::uint64_t tenant) const {
  const auto it = sessions.find(tenant);
  return it == sessions.end() ? nullptr : it->second.get();
}

Admission MonitorDaemon::submit(std::span<const std::uint8_t> frame) {
  any_submitted_ = true;
  std::uint64_t tenant = 0;
  std::size_t frame_size = 0;
  if (peek_route(frame, tenant, frame_size) != PeekStatus::kOk ||
      frame_size != frame.size()) {
    // Torn on arrival: retrying the same bytes cannot help, so the frame is
    // consumed (accepted) and counted, never applied.
    ++corrupt_submits_;
    return {true, 0};
  }

  Shard& shard = *shards_[tenant % shards_.size()];
  if (shard.ends.size() >= options_.queue_capacity) {
    ++rejected_submits_;
    return {false, 1};
  }
  shard.arena.insert(shard.arena.end(), frame.begin(), frame.end());
  shard.ends.push_back(shard.arena.size());
  shard.enqueued_us.push_back(obs::enabled() ? obs::now_us() : 0);
  return {true, 0};
}

bool MonitorDaemon::apply_frame(Shard& shard, TenantSession*& session,
                                const FrameView& view) {
  if (view.kind == FrameKind::kHello) {
    if (session != nullptr) return false;  // replayed
    std::size_t processes = 0, resync_chunk = 0;
    if (!decode_hello(view, processes, resync_chunk)) {
      ++shard.quarantined;
      return false;
    }
    session = shard.sessions
                  .emplace(view.tenant, std::make_unique<TenantSession>(
                                            processes, resync_chunk, view.seq))
                  .first->second.get();
    ++shard.frames_applied;
    return false;
  }

  if (session == nullptr) {
    ++shard.quarantined;  // frames before (or with a corrupted) hello
    return false;
  }
  if (!session->decoder.decode(view, shard.op)) {
    ++session->quarantined_frames;
    return false;
  }
  session->core.apply(shard.op);
  ++shard.frames_applied;
  const std::size_t live = session->core.system().live_log_events();
  shard.live_log_events = shard.live_log_events - session->live + live;
  session->live = live;
  if (!session->changed) {
    session->changed = true;
    shard.changed.emplace_back(view.tenant, session);
  }
  return true;
}

void MonitorDaemon::resolve_runs(Shard& shard) {
  const std::span<const std::uint8_t> arena = shard.arena;
  const std::size_t n = shard.ends.size();
  shard.views.resize(n);
  shard.runs.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = i == 0 ? 0 : shard.ends[i - 1];
    FrameView& view = shard.views[i];
    // The frame's only CRC check; a corrupt frame is quarantined here,
    // never journaled or decoded, and ends the run it interrupts.
    if (peek_frame(arena.subspan(begin, shard.ends[i] - begin), view) !=
        PeekStatus::kOk) {
      view.frame_size = 0;
      ++shard.quarantined;
      continue;
    }
    if (!shard.runs.empty() && shard.runs.back().end == i &&
        shard.runs.back().tenant == view.tenant) {
      ++shard.runs.back().end;
      continue;
    }
    Run& run = shard.runs.emplace_back(
        Run{view.tenant, i, i + 1, shard.find(view.tenant), {}});
    if (options_.journal != nullptr) run.object = journal_object(view.tenant);
  }
  if (options_.journal == nullptr) return;
  shard.syncs.clear();
  for (const Run& run : shard.runs) shard.syncs.push_back(&run);
  std::sort(shard.syncs.begin(), shard.syncs.end(),
            [](const Run* a, const Run* b) { return a->tenant < b->tenant; });
  shard.syncs.erase(
      std::unique(shard.syncs.begin(), shard.syncs.end(),
                  [](const Run* a, const Run* b) {
                    return a->tenant == b->tenant;
                  }),
      shard.syncs.end());
}

void MonitorDaemon::journal(const Shard& shard) {
  // One append per run (a run's bytes are contiguous in the arena), then
  // one sync per tenant; everything else was resolved before the lock.
  const std::span<const std::uint8_t> arena = shard.arena;
  std::lock_guard<std::mutex> lock(journal_mutex_);
  for (const Run& run : shard.runs) {
    const std::size_t begin = run.first == 0 ? 0 : shard.ends[run.first - 1];
    options_.journal->append(
        run.object, arena.subspan(begin, shard.ends[run.end - 1] - begin));
  }
  for (const Run* run : shard.syncs) options_.journal->sync(run->object);
}

void MonitorDaemon::drain(Shard& shard) {
  // However this ends, the pump consumes the shard's frames: after a
  // journal failure (rethrown by pump) none of them is applied.
  struct Consume {
    Shard& shard;
    ~Consume() {
      shard.arena.clear();
      shard.ends.clear();
      shard.enqueued_us.clear();
    }
  } consume{shard};

  shard.applied_live = shard.live_log_events;  // kept if the journal throws
  resolve_runs(shard);
  if (options_.journal != nullptr && !shard.runs.empty()) {
    try {
      journal(shard);
    } catch (...) {
      shard.failure = std::current_exception();
      return;
    }
  }
  for (Run& run : shard.runs) {
    // An earlier run of this pump may have carried the tenant's hello.
    if (run.session == nullptr) run.session = shard.find(run.tenant);
    for (std::size_t i = run.first; i < run.end; ++i) {
      if (apply_frame(shard, run.session, shard.views[i]) &&
          shard.enqueued_us[i] != 0 && obs::enabled()) {
        record_ingest_latency(obs::now_us() - shard.enqueued_us[i]);
      }
    }
  }
  shard.applied_live = shard.live_log_events;
  compact_to_share(shard);
}

void MonitorDaemon::compact_to_share(Shard& shard) {
  if (shard.live_log_events <= shard.budget_share) return;
  // Only a changed session can reclaim anything (see the header). Laggiest
  // first; tenant id breaks ties so the compaction order — and with it
  // every downstream stat — is deterministic.
  std::sort(shard.changed.begin(), shard.changed.end(),
            [](const auto& a, const auto& b) {
              return a.second->live != b.second->live
                         ? a.second->live > b.second->live
                         : a.first < b.first;
            });
  std::size_t compacted = 0;
  while (compacted < shard.changed.size() &&
         shard.live_log_events > shard.budget_share) {
    TenantSession& session = *shard.changed[compacted++].second;
    const std::size_t reclaimed = session.core.compact_at_pin();
    session.changed = false;
    if (reclaimed > 0) {
      ++shard.compactions;
      shard.reclaimed_events += reclaimed;
      session.live -= reclaimed;
      shard.live_log_events -= reclaimed;
    }
  }
  // The compacted sessions leave the list. A shard still over its share
  // has compacted every changed session: its pins are as far along as they
  // get this pump, and the remainder is live state consumers still need.
  shard.changed.erase(
      shard.changed.begin(),
      shard.changed.begin() + static_cast<std::ptrdiff_t>(compacted));
}

void MonitorDaemon::pump() {
  // One contiguous block of shards per pool thread, and the pool's fixed
  // placement runs block b on the same thread every pump: a shard's
  // sessions stay on one core, and a pump hands off to T - 1 workers, not
  // to one per shard.
  pool_.parallel_for(
      shards_.size(),
      [this](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) drain(*shards_[s]);
      },
      std::min(shards_.size(), pool_.thread_count()));
  // O(shards): the live peak counts every shard before its compaction, and
  // the first journal failure, in shard order, is rethrown.
  std::size_t total = 0;
  std::exception_ptr failure;
  for (const auto& shard : shards_) {
    total += shard->applied_live;
    if (failure == nullptr) failure = shard->failure;
    shard->failure = nullptr;
  }
  live_log_peak_ = std::max(live_log_peak_, total);
  if (failure != nullptr) std::rethrow_exception(failure);
}

void MonitorDaemon::recover() {
  SYNCON_REQUIRE(options_.journal != nullptr, "recover needs a journal");
  SYNCON_REQUIRE(!any_submitted_, "recover must precede any submit");
  for (const std::string& name : options_.journal->list()) {
    if (name.rfind("tenant-", 0) != 0) continue;
    const std::vector<std::uint8_t> bytes = options_.journal->read(name);
    std::span<const std::uint8_t> in = bytes;
    TenantSession* session = nullptr;
    std::uint64_t tenant = 0;
    while (!in.empty()) {
      FrameView view;
      if (peek_frame(in, view) != PeekStatus::kOk) {
        // A torn or corrupt tail: replay stops at the last clean frame, and
        // the object is cut back to it (§3.12's truncation rule), so frames
        // journaled after this recovery follow that frame, not bytes the
        // next replay would stop at.
        ++corrupt_submits_;
        options_.journal->truncate(name, bytes.size() - in.size());
        break;
      }
      Shard& shard = *shards_[view.tenant % shards_.size()];
      if (session == nullptr || view.tenant != tenant) {
        tenant = view.tenant;
        session = shard.find(tenant);
      }
      apply_frame(shard, session, view);
      in = in.subspan(view.frame_size);
    }
  }
}

const TenantSessionCore* MonitorDaemon::session(std::uint64_t tenant) const {
  const TenantSession* s = shards_[tenant % shards_.size()]->find(tenant);
  return s == nullptr ? nullptr : &s->core;
}

std::vector<std::string> MonitorDaemon::verdicts(std::uint64_t tenant) const {
  const TenantSessionCore* core = session(tenant);
  return core == nullptr ? std::vector<std::string>{}
                         : core->definite_verdicts();
}

void MonitorDaemon::release(std::uint64_t tenant) {
  Shard& shard = *shards_[tenant % shards_.size()];
  if (const auto it = shard.sessions.find(tenant);
      it != shard.sessions.end()) {
    shard.live_log_events -= it->second->live;
    if (it->second->changed) {
      std::erase_if(shard.changed, [tenant](const auto& entry) {
        return entry.first == tenant;
      });
    }
    shard.sessions.erase(it);
  }
  if (options_.journal != nullptr) {
    const std::string object = journal_object(tenant);
    if (options_.journal->exists(object)) options_.journal->remove(object);
  }
  remove_tenant_gauges(tenant);
}

DaemonStats MonitorDaemon::stats() const {
  DaemonStats stats;
  stats.rejected_submits = rejected_submits_;
  stats.frames_quarantined = corrupt_submits_;
  stats.live_log_peak = live_log_peak_;
  for (const auto& shard : shards_) {
    stats.frames_applied += shard->frames_applied;
    stats.compactions += shard->compactions;
    stats.reclaimed_events += shard->reclaimed_events;
    stats.frames_quarantined += shard->quarantined;
    stats.live_log_events += shard->live_log_events;
    for (const auto& [tenant, session] : shard->sessions) {
      (void)tenant;
      ++stats.tenants;
      stats.frames_quarantined +=
          session->quarantined_frames + session->core.quarantined();
      stats.verdicts += session->core.definite_verdicts().size();
    }
  }
  stats.live_log_peak = std::max(stats.live_log_peak, stats.live_log_events);
  return stats;
}

void MonitorDaemon::publish_metrics() const {
  auto& registry = obs::MetricRegistry::global();
  const DaemonStats s = stats();
  const auto set = [&registry](const char* name, std::uint64_t v) {
    registry.gauge(name).set(static_cast<std::int64_t>(v));
  };
  set("syncon_service_tenants", s.tenants);
  set("syncon_service_frames_applied", s.frames_applied);
  set("syncon_service_frames_quarantined", s.frames_quarantined);
  set("syncon_service_backpressure_rejects", s.rejected_submits);
  set("syncon_service_verdicts", s.verdicts);
  set("syncon_service_live_log_events", s.live_log_events);
  set("syncon_service_live_log_peak", s.live_log_peak);
  set("syncon_service_reclaimed_events", s.reclaimed_events);
  set("syncon_service_compactions", s.compactions);

  // Per-tenant gauges, smallest tenant ids first. Bounded here and dropped
  // at release(), so a 10k-tenant run cannot flood the registry.
  std::size_t published = 0;
  std::vector<std::pair<std::uint64_t, const TenantSession*>> ordered;
  for (const auto& shard : shards_) {
    for (const auto& [tenant, session] : shard->sessions) {
      ordered.emplace_back(tenant, session.get());
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [tenant, session] : ordered) {
    if (published >= kMetricTenants) break;
    const std::uint64_t values[kTenantGauges.size()] = {
        session->core.system().live_log_events(),
        session->core.definite_verdicts().size(),
        session->quarantined_frames + session->core.quarantined()};
    for (std::size_t i = 0; i < kTenantGauges.size(); ++i) {
      registry.gauge(tenant_gauge(kTenantGauges[i], tenant))
          .set(static_cast<std::int64_t>(values[i]));
    }
    ++published;
  }
}

}  // namespace syncon::service
