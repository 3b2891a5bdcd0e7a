#include "explore/universe.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon::explore {

std::size_t Universe::total_ops() const {
  std::size_t n = 0;
  for (const auto& script : ops) n += script.size();
  return n;
}

std::size_t Universe::total_steps() const {
  std::size_t n = messages.size();
  for (const auto& script : ops) {
    for (const UniverseOp& op : script) {
      if (op.recv_arity == 0) ++n;
    }
  }
  return n;
}

Universe universe_from_execution(const Execution& exec) {
  Universe u;
  u.ops.resize(exec.process_count());
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    u.ops[p].resize(exec.real_count(p));
    for (EventIndex i = 1; i <= exec.real_count(p); ++i) {
      u.ops[p][i - 1].recv_arity =
          static_cast<std::uint32_t>(exec.incoming({p, i}).size());
    }
  }
  u.messages.reserve(exec.messages().size());
  for (const Message& m : exec.messages()) {
    const std::uint32_t id = static_cast<std::uint32_t>(u.messages.size());
    u.messages.push_back({m.source.process,
                          static_cast<std::uint32_t>(m.source.index - 1),
                          m.target.process});
    u.ops[m.source.process][m.source.index - 1].sends.push_back(id);
  }
  return u;
}

ScheduleState::ScheduleState(const Universe& u)
    : cursor(u.process_count(), 0),
      filled(u.process_count(), 0),
      delivered(u.messages.size(), 0),
      binding(u.messages.size(), kUnbound) {}

bool ScheduleState::enabled(const Universe& u, Step s) const {
  if (!is_deliver(s)) {
    const ProcessId p = process_of_exec(s);
    const std::uint32_t k = op_of_exec(s);
    return cursor[p] == k && k < u.ops[p].size() &&
           u.ops[p][k].recv_arity == 0;
  }
  const std::uint32_t id = message_of(s);
  if (delivered[id]) return false;
  const UniverseMessage& m = u.messages[id];
  if (m.src_op >= cursor[m.src]) return false;  // source event not built yet
  if (cursor[m.dst] >= u.ops[m.dst].size()) return false;
  const UniverseOp& op = u.ops[m.dst][cursor[m.dst]];
  return op.recv_arity > 0 && filled[m.dst] < op.recv_arity;
}

void ScheduleState::apply(const Universe& u, Step s) {
  SYNCON_ASSERT(enabled(u, s), "apply() of a disabled step");
  if (!is_deliver(s)) {
    ++cursor[process_of_exec(s)];
  } else {
    const std::uint32_t id = message_of(s);
    const UniverseMessage& m = u.messages[id];
    delivered[id] = 1;
    binding[id] = cursor[m.dst];
    if (++filled[m.dst] == u.ops[m.dst][cursor[m.dst]].recv_arity) {
      ++cursor[m.dst];
      filled[m.dst] = 0;
    }
  }
  ++steps_taken;
}

std::vector<Step> ScheduleState::enabled_steps(const Universe& u) const {
  std::vector<Step> out;
  // Emitted in canonical (integer) order: exec steps process-ascending
  // first, then delivers message-ascending.
  for (ProcessId p = 0; p < u.process_count(); ++p) {
    const Step s = exec_step(p, cursor[p]);
    if (enabled(u, s)) out.push_back(s);
  }
  for (std::uint32_t id = 0; id < u.messages.size(); ++id) {
    const Step s = deliver_step(id);
    if (enabled(u, s)) out.push_back(s);
  }
  return out;
}

TraceKey trace_key(const Universe& u, const Schedule& s) {
  // Per receive op (process major, program order): the sorted multiset of
  // bound source events, 0-terminated. Source entries are (src+1)<<32 |
  // src_op, so they never collide with the separator.
  std::vector<std::vector<std::uint64_t>> per_op_sources;
  std::vector<std::vector<std::size_t>> slot(u.process_count());
  std::size_t recv_ops = 0;
  for (ProcessId p = 0; p < u.process_count(); ++p) {
    slot[p].assign(u.ops[p].size(), SIZE_MAX);
    for (std::size_t j = 0; j < u.ops[p].size(); ++j) {
      if (u.ops[p][j].recv_arity > 0) slot[p][j] = recv_ops++;
    }
  }
  per_op_sources.resize(recv_ops);
  for (std::uint32_t id = 0; id < u.messages.size(); ++id) {
    const UniverseMessage& m = u.messages[id];
    SYNCON_ASSERT(s.binding[id] != ScheduleState::kUnbound,
                  "trace_key of an incomplete schedule");
    per_op_sources[slot[m.dst][s.binding[id]]].push_back(
        (static_cast<std::uint64_t>(m.src) + 1) << 32 | m.src_op);
  }
  TraceKey key;
  key.reserve(u.messages.size() + recv_ops);
  for (auto& sources : per_op_sources) {
    std::sort(sources.begin(), sources.end());
    key.insert(key.end(), sources.begin(), sources.end());
    key.push_back(0);
  }
  return key;
}

std::vector<Step> linearize(const Universe& u,
                            std::span<const std::uint32_t> binding,
                            Priority priority) {
  SYNCON_REQUIRE(binding.size() == u.messages.size(),
                 "linearize needs one binding per message");
  // The deliveries bound to each receive op, in message-id order.
  std::vector<std::vector<std::vector<std::uint32_t>>> into(
      u.process_count());
  for (ProcessId p = 0; p < u.process_count(); ++p) {
    into[p].resize(u.ops[p].size());
  }
  for (std::uint32_t id = 0; id < u.messages.size(); ++id) {
    const UniverseMessage& m = u.messages[id];
    SYNCON_REQUIRE(binding[id] < u.ops[m.dst].size() &&
                       u.ops[m.dst][binding[id]].recv_arity > 0,
                   "linearize of an incomplete binding");
    into[m.dst][binding[id]].push_back(id);
  }
  std::vector<std::uint32_t> cursor(u.process_count(), 0);
  const auto ready = [&](ProcessId p) {
    if (cursor[p] == u.ops[p].size()) return false;
    for (const std::uint32_t id : into[p][cursor[p]]) {
      const UniverseMessage& m = u.messages[id];
      if (m.src_op >= cursor[m.src]) return false;
    }
    return true;
  };
  std::vector<Step> word;
  word.reserve(u.total_steps());
  for (std::size_t left = u.total_ops(); left > 0; --left) {
    ProcessId p = 0;
    bool found = false;
    for (std::size_t k = 0; k < u.process_count() && !found; ++k) {
      p = static_cast<ProcessId>(priority == Priority::kLowestFirst
                                     ? k
                                     : u.process_count() - 1 - k);
      found = ready(p);
    }
    SYNCON_REQUIRE(found, "linearize of a cyclic binding");
    const UniverseOp& op = u.ops[p][cursor[p]];
    SYNCON_REQUIRE(into[p][cursor[p]].size() == op.recv_arity,
                   "linearize of an incomplete binding");
    if (op.recv_arity == 0) word.push_back(exec_step(p, cursor[p]));
    for (const std::uint32_t id : into[p][cursor[p]]) {
      word.push_back(deliver_step(id));
    }
    ++cursor[p];
  }
  return word;
}

std::shared_ptr<const Execution> induced_execution(const Universe& u,
                                                   const Schedule& s) {
  ExecutionBuilder b(u.process_count());
  ScheduleState st(u);
  std::vector<std::vector<EventId>> pending(u.process_count());
  for (const Step step : s.word) {
    if (!is_deliver(step)) {
      b.local(process_of_exec(step));
      st.apply(u, step);
      continue;
    }
    const UniverseMessage& m = u.messages[message_of(step)];
    pending[m.dst].push_back(
        {m.src, static_cast<EventIndex>(m.src_op + 1)});
    const std::uint32_t before = st.cursor[m.dst];
    st.apply(u, step);
    if (st.cursor[m.dst] != before) {  // the delivery completed the gather
      std::sort(pending[m.dst].begin(), pending[m.dst].end());
      b.receive_from(m.dst, pending[m.dst]);
      pending[m.dst].clear();
    }
  }
  SYNCON_REQUIRE(st.complete(u), "induced_execution of a partial schedule");
  return std::make_shared<const Execution>(b.build());
}

}  // namespace syncon::explore
