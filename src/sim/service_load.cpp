#include "sim/service_load.hpp"

#include <deque>
#include <utility>

#include "support/contracts.hpp"

namespace syncon::service {

namespace {

/// One in-flight tenant: its script, its encode cursor, and at most one
/// encoded-but-unaccepted frame awaiting retry.
struct ActiveTenant {
  std::uint64_t id = 0;
  TenantScript script;
  std::size_t cursor = 0;       // next op to encode
  bool hello_sent = false;
  std::vector<std::uint8_t> pending;  // encoded frame awaiting admission
};

}  // namespace

ServiceLoadResult run_service_load(const ServiceLoadConfig& config,
                                   MonitorDaemon& daemon) {
  SYNCON_REQUIRE(config.tenants > 0, "load needs at least one tenant");
  SYNCON_REQUIRE(config.window > 0 && config.batch > 0,
                 "window and batch must be positive");

  ServiceLoadResult result;
  TenantFrameEncoder encoder;
  std::deque<ActiveTenant> active;
  std::uint64_t next_tenant = 0;

  const auto admit_tenant = [&]() {
    ActiveTenant tenant;
    tenant.id = next_tenant++;
    TenantWorkload workload = config.workload;
    // Independent per-tenant fault schedules from one master seed.
    workload.seed = config.seed ^ (0x9e3779b97f4a7c15ull * (tenant.id + 1));
    tenant.script = generate_tenant_script(workload);
    result.total_events += tenant.script.executed_events;
    result.total_ops += tenant.script.ops.size();
    active.push_back(std::move(tenant));
  };

  while (next_tenant < config.tenants && active.size() < config.window) {
    admit_tenant();
  }

  while (!active.empty()) {
    // Submit phase: every active tenant pushes up to `batch` frames; a
    // rejected frame parks in `pending` and the tenant yields until the
    // next round — the pump below frees the queues, so progress is certain.
    for (ActiveTenant& tenant : active) {
      for (std::size_t submitted = 0; submitted < config.batch; ++submitted) {
        if (tenant.pending.empty()) {
          if (!tenant.hello_sent) {
            encoder.encode_hello(tenant.id, tenant.script.processes,
                                 tenant.script.resync_chunk, tenant.pending);
            tenant.hello_sent = true;
          } else if (tenant.cursor < tenant.script.ops.size()) {
            encoder.encode_op(tenant.id, tenant.script.ops[tenant.cursor],
                              tenant.pending);
            ++tenant.cursor;
          } else {
            break;  // tenant fully encoded
          }
        }
        const Admission admission = daemon.submit(tenant.pending);
        if (!admission.accepted) break;  // backpressure: retry next round
        tenant.pending.clear();
        ++result.total_frames;
      }
    }

    daemon.pump();
    ++result.rounds;

    // Retire phase: a tenant whose last frame was accepted is now fully
    // applied (pump is a barrier) — check identity and admit a successor.
    while (!active.empty() && active.front().pending.empty() &&
           active.front().hello_sent &&
           active.front().cursor == active.front().script.ops.size()) {
      const ActiveTenant& done = active.front();
      const std::vector<std::string> served = daemon.verdicts(done.id);
      result.verdicts_total += served.size();
      if (served != done.script.reference_verdicts) {
        ++result.identity_mismatches;
      }
      ++result.tenants_run;
      encoder.release(done.id);
      if (config.release_finished) daemon.release(done.id);
      active.pop_front();
      if (next_tenant < config.tenants) admit_tenant();
    }

    if (config.on_round) config.on_round(result.rounds - 1);
  }

  result.identity_ok = result.identity_mismatches == 0;
  result.daemon = daemon.stats();
  return result;
}

}  // namespace syncon::service
