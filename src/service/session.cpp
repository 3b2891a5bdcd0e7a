#include "service/session.hpp"

#include "support/contracts.hpp"

namespace syncon::service {

void TenantOp::reset(FrameKind k) {
  kind = k;
  label.clear();
  label2.clear();
  relation = {};
  message.source = {};
  message.clock.clear();
  sources.clear();
  time = OnlineSystem::kNoTime;
}

TenantSessionCore::TenantSessionCore(std::size_t processes,
                                     std::size_t resync_chunk)
    : sys_(processes), monitor_(processes), resync_chunk_(resync_chunk) {
  SYNCON_REQUIRE(resync_chunk_ > 0, "resync chunk must be positive");
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
    case FrameKind::kHello:
      SYNCON_REQUIRE(false, "a hello opens a session; it is not an op");
      break;
    case FrameKind::kBegin:
      monitor_.begin(op.label);
      break;
    case FrameKind::kWatch:
      monitor_.watch(op.relation, op.label, op.label2,
                     [this](const std::string& x, const std::string& y,
                            bool holds, Confidence conf) {
                       if (conf != Confidence::Definite) return;
                       verdicts_.push_back(x + "|" + y + "|" +
                                           (holds ? "holds" : "fails"));
                     });
      break;
    case FrameKind::kComplete:
      monitor_.complete(op.label);
      break;
    case FrameKind::kForget:
      monitor_.forget(op.label);
      break;
    case FrameKind::kEvent:
      // Restored first: an op whose label names no open action is
      // quarantined, and its event stays in the replica.
      sys_.restore_event(op.message.source, op.message.clock, op.sources,
                         op.time);
      if (!op.label.empty()) monitor_.record(op.label, op.message.source);
      break;
    case FrameKind::kReport:
      monitor_.observe(op.message);
      break;
    case FrameKind::kCheckpoint: {
      monitor_.checkpoint(op.message.clock);
      // Served from the replica. On a degraded stream (quarantined journal
      // frames) the replica cannot serve everything the checkpoint claims;
      // resync requests only what it holds, and the rest stays open
      // (PendingGap).
      resync_rounds_ += monitor_.resync(
          sys_, resync_chunk_,
          [this](const WireMessage& reply) { monitor_.observe(reply); });
      break;
    }
  }
}

std::size_t TenantSessionCore::compact_at_pin() {
  monitor_.watermark_pin(pin_);
  return sys_.compact(pin_);
}

}  // namespace syncon::service
