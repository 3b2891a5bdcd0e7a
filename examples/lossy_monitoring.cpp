// Fault-tolerant online monitoring over a lossy report channel
// (DESIGN.md §3.7): the application runs fault-free, but every event
// *report* shipped to the remote monitor passes through a seeded
// FaultyChannel that drops, duplicates, reorders and delays. The monitor
// knows each action's member events (record) and routes every report by
// them (observe): it folds reports in arrival order, fires watches with a
// Confidence flag while reports are known-missing, then resyncs
// (OnlineMonitor::resync: retransmit request → serve → observe) and
// converges to the exact fault-free verdicts.
//
// Run: ./lossy_monitoring [--drop=P] [--dup=P] [--seed=N]
#include <cstdio>

#include <string>
#include <vector>

#include "monitor/report.hpp"
#include "online/online_monitor.hpp"
#include "sim/faulty_channel.hpp"
#include "support/cli.hpp"

using namespace syncon;

int main(int argc, char** argv) {
  CliParser cli("lossy_monitoring",
                "degraded-mode monitoring behind a faulty report channel");
  cli.add_option("drop", "25", "report drop probability, percent");
  cli.add_option("dup", "15", "report duplication probability, percent");
  cli.add_option("seed", "42", "fault schedule seed");
  if (!cli.parse(argc, argv)) return 1;

  // The application: three workers hand work to a combiner, fault-free.
  constexpr std::size_t kProcs = 4;
  OnlineSystem sys(kProcs);
  const ProcessId combiner = 3;

  std::vector<EventId> action_a, action_b;
  std::vector<WireMessage> parts;
  for (ProcessId w = 0; w < 3; ++w) {
    action_a.push_back(sys.local(w, 100 + 10 * w));
    WireMessage part = sys.send(w, 200 + 10 * w);
    action_a.push_back(part.source);
    parts.push_back(std::move(part));
  }
  action_b.push_back(sys.deliver_all(combiner, parts, 900));
  action_b.push_back(sys.local(combiner, 1000));

  // The monitoring plane: reports reach the monitor through a faulty link.
  LinkFaultConfig link;
  link.drop_probability = static_cast<double>(cli.get_uint("drop")) / 100.0;
  link.duplicate_probability =
      static_cast<double>(cli.get_uint("dup")) / 100.0;
  link.reorder_probability = 0.3;
  link.min_delay = 10;
  link.max_delay = 500;
  FaultyChannel channel(link, cli.get_uint("seed"));

  TimePoint t = 0;
  for (const EventId& e : action_a) channel.push(sys.wire_of(e), t += 10);
  for (const EventId& e : action_b) channel.push(sys.wire_of(e), t += 10);

  OnlineMonitor remote(kProcs);  // feed-only: never reads `sys`
  remote.begin("A");
  remote.begin("B");
  for (const EventId& e : action_a) remote.record("A", e);
  for (const EventId& e : action_b) remote.record("B", e);
  remote.watch({Relation::R3, ProxyKind::Begin, ProxyKind::End}, "A", "B",
               [](const std::string& x, const std::string& y, bool holds,
                  Confidence conf) {
                 std::printf("watch R3(L[%s],U[%s]) -> %s  [%s]\n", x.c_str(),
                             y.c_str(), holds ? "HOLDS" : "no",
                             to_string(conf));
               });

  for (const Arrival& a : channel.drain()) {
    remote.observe(a.message, sys.time_of(a.message.source));
  }
  // Tail losses are invisible until an authoritative snapshot vouches for
  // every executed event; resync pulls lost reports from the sender's log.
  const auto resync = [&] {
    remote.checkpoint(sys.snapshot());
    remote.resync(sys, /*chunk=*/64, [&](const WireMessage& m) {
      remote.observe(m, sys.time_of(m.source));
    });
  };
  // An action may reach its completion point with EVERY report lost; it
  // cannot be summarized from nothing, so recover before completing it.
  if (remote.recorded_events("A") == 0 || remote.recorded_events("B") == 0) {
    resync();
  }
  remote.complete("A");
  remote.complete("B");
  resync();  // close remaining gaps: pending watches re-fire Definite

  std::printf("\n%s\n", online_report_to_string(remote).c_str());
  const ChannelStats stats = channel.stats();
  std::printf("channel: offered=%llu dropped=%llu duplicated=%llu "
              "reordered=%llu\n",
              static_cast<unsigned long long>(stats.offered),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.duplicated),
              static_cast<unsigned long long>(stats.reordered));
  return 0;
}
