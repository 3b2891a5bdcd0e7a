#include "service/daemon.hpp"

#include <algorithm>
#include <array>
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
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
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

bool MonitorDaemon::apply_frame(Shard& shard, const FrameView& view) {
  if (view.kind == FrameKind::kHello) {
    if (shard.sessions.count(view.tenant) != 0) return false;  // replayed
    std::size_t processes = 0, resync_chunk = 0;
    if (!decode_hello(view, processes, resync_chunk)) {
      ++shard.quarantined;
      return false;
    }
    shard.sessions.emplace(view.tenant,
                           std::make_unique<TenantSession>(
                               processes, resync_chunk, view.seq));
    ++shard.frames_applied;
    return false;
  }

  const auto it = shard.sessions.find(view.tenant);
  if (it == shard.sessions.end()) {
    ++shard.quarantined;  // frames before (or with a corrupted) hello
    return false;
  }
  TenantSession& session = *it->second;
  if (!session.decoder.decode(view, shard.op)) {
    ++session.quarantined_frames;
    return false;
  }
  session.core.apply(shard.op);
  ++shard.frames_applied;
  const std::size_t live = session.core.system().live_log_events();
  shard.live_log_events = shard.live_log_events - session.live + live;
  session.live = live;
  if (!session.changed) {
    session.changed = true;
    shard.changed.emplace_back(view.tenant, &session);
  }
  return true;
}

void MonitorDaemon::journal(const Shard& shard) {
  // One append per maximal run of one tenant's consecutive clean frames (a
  // run's bytes are contiguous in the arena), then one sync per tenant.
  std::vector<std::uint64_t> journaled;
  const std::span<const std::uint8_t> arena = shard.arena;
  const std::size_t n = shard.views.size();
  std::lock_guard<std::mutex> lock(journal_mutex_);
  std::size_t begin = 0;  // the arena offset of frame i
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    if (shard.views[i].frame_size != 0) {
      const std::uint64_t tenant = shard.views[i].tenant;
      while (j < n && shard.views[j].frame_size != 0 &&
             shard.views[j].tenant == tenant) {
        ++j;
      }
      options_.journal->append(journal_object(tenant),
                               arena.subspan(begin, shard.ends[j - 1] - begin));
      journaled.push_back(tenant);
    }
    begin = shard.ends[j - 1];
    i = j;
  }
  std::sort(journaled.begin(), journaled.end());
  journaled.erase(std::unique(journaled.begin(), journaled.end()),
                  journaled.end());
  for (const std::uint64_t tenant : journaled) {
    options_.journal->sync(journal_object(tenant));
  }
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

  // The frame's only CRC check; a corrupt frame is quarantined here and
  // never journaled or decoded.
  const std::span<const std::uint8_t> arena = shard.arena;
  const std::size_t n = shard.ends.size();
  shard.views.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = i == 0 ? 0 : shard.ends[i - 1];
    FrameView& view = shard.views[i];
    if (peek_frame(arena.subspan(begin, shard.ends[i] - begin), view) !=
        PeekStatus::kOk) {
      view.frame_size = 0;
      ++shard.quarantined;
    }
  }
  if (options_.journal != nullptr && n != 0) journal(shard);
  for (std::size_t i = 0; i < n; ++i) {
    if (shard.views[i].frame_size == 0) continue;
    if (apply_frame(shard, shard.views[i]) && shard.enqueued_us[i] != 0 &&
        obs::enabled()) {
      record_ingest_latency(obs::now_us() - shard.enqueued_us[i]);
    }
  }
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
  enforce_memory_budget();
}

void MonitorDaemon::enforce_memory_budget() {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->live_log_events;
  live_log_peak_ = std::max(live_log_peak_, total);
  if (options_.memory_budget_events == 0 ||
      total <= options_.memory_budget_events) {
    return;
  }
  // Only a changed session can reclaim anything (see the header), so the
  // candidates are the changed ones, in the order a pass over every
  // session would visit them.
  struct Candidate {
    std::size_t live;
    std::uint64_t tenant;
    TenantSession* session;
    Shard* shard;
  };
  std::vector<Candidate> candidates;
  for (const auto& shard : shards_) {
    for (const auto& [tenant, session] : shard->changed) {
      candidates.push_back({session->live, tenant, session, shard.get()});
    }
  }
  // Laggiest first; tenant id breaks ties so the compaction order — and
  // with it every downstream stat — is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.live != b.live ? a.live > b.live : a.tenant < b.tenant;
            });
  for (const Candidate& candidate : candidates) {
    TenantSession& session = *candidate.session;
    const std::size_t reclaimed = session.core.compact_at_pin();
    session.changed = false;
    if (reclaimed > 0) {
      ++compactions_;
      reclaimed_events_ += reclaimed;
      total -= reclaimed;
      session.live -= reclaimed;
      candidate.shard->live_log_events -= reclaimed;
    }
    if (total <= options_.memory_budget_events) break;
  }
  // Still over budget: every pin is as far along as it gets this pump —
  // the remainder is live state consumers genuinely still need.
  for (const auto& shard : shards_) {
    std::erase_if(shard->changed,
                  [](const auto& entry) { return !entry.second->changed; });
  }
}

void MonitorDaemon::recover() {
  SYNCON_REQUIRE(options_.journal != nullptr, "recover needs a journal");
  SYNCON_REQUIRE(!any_submitted_, "recover must precede any submit");
  for (const std::string& name : options_.journal->list()) {
    if (name.rfind("tenant-", 0) != 0) continue;
    const std::vector<std::uint8_t> bytes = options_.journal->read(name);
    std::span<const std::uint8_t> in = bytes;
    while (!in.empty()) {
      FrameView view;
      if (peek_frame(in, view) != PeekStatus::kOk) {
        ++corrupt_submits_;  // torn tail: replay stops at the last clean frame
        break;
      }
      apply_frame(*shards_[view.tenant % shards_.size()], view);
      in = in.subspan(view.frame_size);
    }
  }
}

const MonitorDaemon::TenantSession* MonitorDaemon::find_session(
    std::uint64_t tenant) const {
  const Shard& shard = *shards_[tenant % shards_.size()];
  const auto it = shard.sessions.find(tenant);
  return it == shard.sessions.end() ? nullptr : it->second.get();
}

const TenantSessionCore* MonitorDaemon::session(std::uint64_t tenant) const {
  const TenantSession* s = find_session(tenant);
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
  stats.reclaimed_events = reclaimed_events_;
  stats.compactions = compactions_;
  for (const auto& shard : shards_) {
    stats.frames_applied += shard->frames_applied;
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
