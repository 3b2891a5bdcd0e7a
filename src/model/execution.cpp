#include "model/execution.hpp"

#include <ostream>

#include "support/contracts.hpp"

namespace syncon {

std::ostream& operator<<(std::ostream& os, const EventId& e) {
  return os << to_string(e);
}

std::string to_string(const EventId& e) {
  return 'e' + std::to_string(e.process) + '.' + std::to_string(e.index);
}

EventIndex Execution::real_count(ProcessId p) const {
  SYNCON_REQUIRE(p < processes_.size(), "process id out of range");
  return processes_[p].real_count;
}

EventId Execution::initial(ProcessId p) const {
  SYNCON_REQUIRE(p < processes_.size(), "process id out of range");
  return EventId{p, 0};
}

EventId Execution::final(ProcessId p) const {
  return EventId{p, real_count(p) + 1};
}

EventId Execution::event(ProcessId p, EventIndex index) const {
  SYNCON_REQUIRE(p < processes_.size(), "process id out of range");
  SYNCON_REQUIRE(index < total_count(p), "event index out of range");
  return EventId{p, index};
}

bool Execution::valid_event(EventId e) const {
  return e.process < processes_.size() && e.index < total_count(e.process);
}

std::uint32_t Execution::seq_of(EventId e) const {
  SYNCON_ASSERT(is_real(e), "seq_of on a dummy event");
  return processes_[e.process].seq_by_index[e.index - 1];
}

std::uint32_t Execution::topological_index(EventId e) const {
  SYNCON_REQUIRE(is_real(e), "topological_index requires a real event");
  return seq_of(e);
}

std::span<const EventId> Execution::incoming(EventId e) const {
  SYNCON_REQUIRE(valid_event(e), "incoming() of invalid event");
  if (is_dummy(e)) return {};
  const auto& sources = incoming_[seq_of(e)];
  return {sources.data(), sources.size()};
}

ExecutionBuilder::ExecutionBuilder(std::size_t process_count) {
  SYNCON_REQUIRE(process_count > 0, "an execution needs at least one process");
  exec_.processes_.resize(process_count);
}

EventId ExecutionBuilder::append(ProcessId p, std::vector<EventId> sources) {
  SYNCON_REQUIRE(!built_, "builder already consumed by build()");
  SYNCON_REQUIRE(p < exec_.processes_.size(), "process id out of range");
  auto& info = exec_.processes_[p];
  ++info.real_count;
  const EventId id{p, info.real_count};
  info.seq_by_index.push_back(static_cast<std::uint32_t>(exec_.order_.size()));
  exec_.order_.push_back(id);
  for (const EventId& src : sources) {
    exec_.messages_.push_back(Message{src, id});
  }
  exec_.incoming_.push_back(std::move(sources));
  return id;
}

EventId ExecutionBuilder::local(ProcessId p) { return append(p, {}); }

MessageToken ExecutionBuilder::send(ProcessId p, EventId* event_out) {
  const EventId e = append(p, {});
  if (event_out != nullptr) *event_out = e;
  return MessageToken(e);
}

EventId ExecutionBuilder::receive(ProcessId p, const MessageToken& token) {
  const MessageToken tokens[] = {token};
  return receive_all(p, tokens);
}

EventId ExecutionBuilder::receive_all(ProcessId p,
                                      std::span<const MessageToken> tokens) {
  SYNCON_REQUIRE(!tokens.empty(), "receive_all needs at least one message");
  std::vector<EventId> sources;
  sources.reserve(tokens.size());
  for (const MessageToken& t : tokens) {
    SYNCON_REQUIRE(t.source().process != p,
                   "a process cannot receive its own message");
    sources.push_back(t.source());
  }
  return append(p, std::move(sources));
}

EventId ExecutionBuilder::receive_from(ProcessId p,
                                       std::span<const EventId> sources) {
  SYNCON_REQUIRE(!sources.empty(), "receive_from needs at least one source");
  std::vector<EventId> srcs;
  srcs.reserve(sources.size());
  for (const EventId& src : sources) {
    SYNCON_REQUIRE(src.process != p,
                   "a process cannot receive its own message");
    SYNCON_REQUIRE(src.process < exec_.processes_.size() && src.index >= 1 &&
                       src.index <= exec_.real_count(src.process),
                   "message source must be an existing real event");
    srcs.push_back(src);
  }
  return append(p, std::move(srcs));
}

Execution ExecutionBuilder::build() {
  SYNCON_REQUIRE(!built_, "build() called twice");
  built_ = true;
  return std::move(exec_);
}

}  // namespace syncon
