// Multi-tenant load generator for the monitoring daemon: a sliding window
// of tenants, each a deterministic TenantScript, encoded through the wire
// codec and pushed into a MonitorDaemon with retry-on-backpressure. When a
// tenant's last frame has been pumped, its daemon-side Definite verdict log
// is compared bit-for-bit against the script's standalone reference — the
// service's headline identity guarantee, checked for every tenant, at any
// scale the config asks for.
#pragma once

#include <cstdint>
#include <functional>

#include "service/daemon.hpp"
#include "sim/soak.hpp"

namespace syncon::service {

struct ServiceLoadConfig {
  std::size_t tenants = 100;
  /// Tenants in flight at once (bounds generator memory, not the daemon's).
  std::size_t window = 64;
  /// Frames submitted per active tenant per round; rejected frames are
  /// retried next round without advancing that tenant (FIFO preserved).
  std::size_t batch = 8;
  /// Per-tenant workload shape; the seed is re-derived per tenant.
  TenantWorkload workload;
  std::uint64_t seed = 1;
  /// Drop a tenant's daemon session once it finished and passed the
  /// identity check (long runs would otherwise hold every session forever).
  bool release_finished = false;
  /// End-of-round hook (serve scrapes, publish metrics). The round count
  /// is monotone across the whole run.
  std::function<void(std::uint64_t round)> on_round;
};

struct ServiceLoadResult {
  std::uint64_t tenants_run = 0;
  std::uint64_t total_events = 0;   ///< authoritative events, all tenants
  std::uint64_t total_ops = 0;      ///< ops encoded + submitted
  std::uint64_t total_frames = 0;   ///< frames submitted (ops + hellos)
  std::uint64_t rounds = 0;
  std::uint64_t verdicts_total = 0;
  std::uint64_t identity_mismatches = 0;
  bool identity_ok = true;
  /// Daemon counters at the end of the run.
  DaemonStats daemon;
};

/// Drives `daemon` with `config.tenants` scripted tenants. Deterministic
/// given (config, daemon options) up to ingest-latency telemetry.
ServiceLoadResult run_service_load(const ServiceLoadConfig& config,
                                   MonitorDaemon& daemon);

}  // namespace syncon::service
