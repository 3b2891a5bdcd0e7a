// The delivery-schedule universe — the input language of the explorer
// (DESIGN.md §3.14).
//
// A Universe abstracts an execution into per-process *op scripts* plus a
// free-floating message set. Each op either executes immediately (a local
// or send event) or is a receive slot of fixed arity that a schedule fills
// with messages one delivery at a time. What the original execution pinned
// down — which message lands in which receive — becomes a schedule choice,
// the *binding*. Two schedules with different bindings (up to swapping
// identical messages) induce different happens-before posets, while two
// schedules with the same binding induce the same poset in a different
// linearization. That is exactly the Mazurkiewicz-trace equivalence of
// arXiv 1410.1209 ("same partial order"): the explorer enumerates the
// acyclic bindings and linearizes each one into a single schedule.
//
// Event identities survive rebinding: process p's k-th op always produces
// event (p, k+1) in every induced execution, so nonatomic-event member sets
// expressed as EventIds stay valid across every schedule of the universe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "model/execution.hpp"

namespace syncon::explore {

/// One scripted step of a process. recv_arity == 0 means the op executes on
/// its own (local or send); k > 0 means the op is a gather of k messages
/// and completes when a schedule has delivered k messages into it. Either
/// kind may also source messages (`sends`): a receive event is a legal
/// message source (piggybacked forwarding).
struct UniverseOp {
  std::uint32_t recv_arity = 0;
  std::vector<std::uint32_t> sends;  // message ids sourced by this op's event
};

/// One message of the universe. The source event and destination process
/// are fixed; the receive slot on `dst` is the schedule's choice.
struct UniverseMessage {
  ProcessId src = 0;
  std::uint32_t src_op = 0;  // op index on src (event (src, src_op + 1))
  ProcessId dst = 0;
};

struct Universe {
  std::vector<std::vector<UniverseOp>> ops;  // per process, program order
  std::vector<UniverseMessage> messages;

  std::size_t process_count() const { return ops.size(); }
  std::size_t total_ops() const;
  /// Schedule length: one step per non-receive op + one per message.
  std::size_t total_steps() const;
};

/// Extracts the universe of an execution: event (p, i) becomes op i-1 of
/// process p with recv_arity = |incoming(e)|, and each message becomes a
/// UniverseMessage keeping its source event and destination process but
/// dropping its target binding. The execution's own schedule is one member
/// of the universe's schedule set.
Universe universe_from_execution(const Execution& exec);

// ---------------------------------------------------------------------------
// Schedule steps, encoded in one u32 so words are cheap to store. Exec steps
// sort before Deliver steps; Exec by (process, op), Deliver by message id.
// ---------------------------------------------------------------------------

using Step = std::uint32_t;
inline constexpr Step kDeliverBit = 0x8000'0000u;

inline Step exec_step(ProcessId p, std::uint32_t op) {
  return (static_cast<Step>(p) << 16) | op;
}
inline Step deliver_step(std::uint32_t message) {
  return kDeliverBit | message;
}
inline bool is_deliver(Step s) { return (s & kDeliverBit) != 0; }
inline std::uint32_t message_of(Step s) { return s & ~kDeliverBit; }
inline ProcessId process_of_exec(Step s) {
  return static_cast<ProcessId>(s >> 16);
}
inline std::uint32_t op_of_exec(Step s) { return s & 0xFFFFu; }

// ---------------------------------------------------------------------------
// Schedule replay state
// ---------------------------------------------------------------------------

/// Mutable cursor state of one schedule prefix. Small (a few vectors of
/// ints), copied freely by the naive interleaving walk.
struct ScheduleState {
  explicit ScheduleState(const Universe& u);

  std::vector<std::uint32_t> cursor;   // next op per process
  std::vector<std::uint32_t> filled;   // deliveries into the current recv
  std::vector<std::uint8_t> delivered;   // per message
  std::vector<std::uint32_t> binding;    // message -> recv op index on dst
  std::uint32_t steps_taken = 0;

  static constexpr std::uint32_t kUnbound = 0xFFFF'FFFFu;

  bool enabled(const Universe& u, Step s) const;
  /// Applies an enabled step (advances cursors, records bindings).
  void apply(const Universe& u, Step s);
  /// All enabled steps, in canonical (integer) order.
  std::vector<Step> enabled_steps(const Universe& u) const;
  bool complete(const Universe& u) const {
    return steps_taken == u.total_steps();
  }
};

/// A complete schedule: the step word plus the binding it induced.
struct Schedule {
  std::vector<Step> word;
  std::vector<std::uint32_t> binding;  // message -> recv op index on dst
};

/// Canonical identity of the induced poset: for every receive op (process
/// major, op order), the sorted multiset of bound source events. Two
/// schedules induce the same happens-before poset iff their trace keys are
/// equal — messages with identical (src, src_op, dst) are interchangeable,
/// which a raw binding vector would miss.
using TraceKey = std::vector<std::uint64_t>;
TraceKey trace_key(const Universe& u, const Schedule& s);

/// Which ready process a linearization advances first.
enum class Priority { kLowestFirst, kHighestFirst };

/// The one word of a complete, acyclic binding that always advances the
/// lowest- (or highest-) numbered ready process: an op is ready once the
/// sources of the messages bound to it have executed, and a receive emits
/// its bound deliveries in message-id order. The word replays through
/// ScheduleState to exactly `binding`.
std::vector<Step> linearize(const Universe& u,
                            std::span<const std::uint32_t> binding,
                            Priority priority = Priority::kLowestFirst);

/// Rebuilds the induced execution of a complete schedule through
/// ExecutionBuilder (so it passes the same acyclicity validation as every
/// other execution in the library). Sources of each receive are the bound
/// messages' source events.
std::shared_ptr<const Execution> induced_execution(const Universe& u,
                                                   const Schedule& s);

}  // namespace syncon::explore
