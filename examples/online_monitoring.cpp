// Online (runtime) monitoring: processes maintain vector clocks by
// piggybacking them on messages; high-level actions are tracked as their
// component events execute; registered synchronization and deadline
// watches fire the moment both actions of a pair complete — no post-hoc
// trace processing.
//
// The scenario is a two-stage processing pipeline:
//   watch 1  on (A/k, B/k), one set watch of two relations, evaluated in
//            one pass when B/k completes:
//              "stage-B batch k is entirely caused by stage-A batch k"
//              (R3'(L,U): every B event has an A cause), and
//              "some B event saw ALL of A batch k" (R2'(U,U))
//   watch 2  "batch k+1's A work never overtakes batch k's B commit"
//            (R1(U,L) between B/k and the NEXT A batch)
//   watch 3  "B/k commits within 20ms of A/k finishing" (deadline)
//
// Run: ./online_monitoring [--workers=N] [--batches=N]
#include <cstdio>

#include <string>
#include <vector>

#include "online/online_monitor.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace syncon;

int main(int argc, char** argv) {
  CliParser cli("online_monitoring",
                "check pipeline synchronization conditions at runtime");
  cli.add_option("workers", "3", "stage-A worker processes");
  cli.add_option("batches", "5", "number of pipeline batches");
  cli.add_option("deadline-us", "20000", "A→B commit deadline in µs");
  if (!cli.parse(argc, argv)) return 1;
  const std::size_t workers = cli.get_uint("workers");
  const std::size_t batches = cli.get_uint("batches");
  const auto deadline = static_cast<Duration>(cli.get_int("deadline-us"));

  OnlineSystem sys(workers + 1);
  OnlineMonitor monitor(sys);
  const auto combiner = static_cast<ProcessId>(workers);
  Xoshiro256StarStar rng(7);

  TextTable table({"watch", "pair", "verdict"});
  // Confidence is always Definite here: the monitor reads the system
  // directly, no lossy report channel is involved (see lossy_monitoring for
  // the degraded-mode counterpart).
  const auto add_row = [&](const char* what, const std::string& x,
                           const std::string& y, bool holds) {
    table.new_row()
        .add_cell(std::string(what))
        .add_cell(x + " , " + y)
        .add_cell(holds);
  };
  constexpr RelationId caused_by_a{Relation::R3p, ProxyKind::Begin,
                                   ProxyKind::End};
  constexpr RelationId saw_all_a{Relation::R2p, ProxyKind::End,
                                 ProxyKind::End};
  auto deadline_cb = [&](const std::string& x, const std::string& y,
                         Duration measured, bool ok, Confidence) {
    table.new_row()
        .add_cell(std::string("deadline ") + std::to_string(measured) + "µs")
        .add_cell(x + " , " + y)
        .add_cell(ok);
  };

  // Simulated wall clock, microseconds; each process drifts forward.
  std::vector<std::int64_t> now(workers + 1, 0);
  auto tick = [&](ProcessId p) {
    now[p] += 500 + static_cast<std::int64_t>(rng.below(3000));
    return now[p];
  };

  for (std::size_t k = 0; k < batches; ++k) {
    const std::string a_label = "A/" + std::to_string(k);
    const std::string b_label = "B/" + std::to_string(k);
    monitor.begin(a_label);
    monitor.begin(b_label);

    // Register the watches up front — they fire as completions happen.
    monitor.watch(RelationSet::of(caused_by_a) | RelationSet::of(saw_all_a),
                  a_label, b_label,
                  [&, a_label, b_label](RelationSet holding, Confidence) {
                    add_row("R3'(L,U) B caused by A", a_label, b_label,
                            holding.contains(caused_by_a));
                    add_row("R2'(U,U) B saw all A", a_label, b_label,
                            holding.contains(saw_all_a));
                  });
    if (k > 0) {
      monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin},
                    "B/" + std::to_string(k - 1), a_label,
                    [&](const std::string& x, const std::string& y,
                        bool holds, Confidence) {
                      add_row("R1(U,L) no overtaking", x, y, holds);
                    });
    }
    monitor.watch_deadline(
        TimingConstraint{"commit", Anchor::End, Anchor::End, 0, deadline},
        a_label, b_label, deadline_cb);

    // Stage A: each worker produces and ships a part.
    std::vector<WireMessage> parts;
    for (ProcessId w = 0; w < workers; ++w) {
      monitor.record(a_label, sys.local(w, tick(w)));  // produce
      WireMessage part = sys.send(w, tick(w));         // ship
      monitor.record(a_label, part.source);
      parts.push_back(std::move(part));
    }
    monitor.complete(a_label);

    // Stage B: the combiner joins the parts and commits the batch. Its
    // local clock must pass the arrival times.
    std::int64_t arrival = 0;
    for (ProcessId w = 0; w < workers; ++w) {
      arrival = std::max(arrival, now[w]);
    }
    now[combiner] = std::max(now[combiner], arrival);
    monitor.record(b_label, sys.deliver_all(combiner, parts, tick(combiner)));
    monitor.record(b_label, sys.local(combiner, tick(combiner)));  // commit
    monitor.complete(b_label);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("note: the 'no overtaking' watch correctly reports NO — this "
              "pipeline has no\nflow control, so stage-A workers start batch "
              "k+1 without waiting for the\nbatch-k commit. The monitor "
              "detects the (real) property violation at runtime.\n\n");
  std::printf("events executed: %zu; comparisons across all watches: %llu\n",
              sys.total_executed(),
              static_cast<unsigned long long>(
                  monitor.counter().integer_comparisons));
  std::printf(
      "\nonline cost note: R1/R2/R3/R4 watches stay linear (|N_A| cmps) at\n"
      "runtime; R2'/R3' watches cost |N_A|·|N_B| online because the linear\n"
      "offline tests need reverse timestamps — the future of the trace\n"
      "(DESIGN.md §8, docs/THEORY.md §8).\n");
  return 0;
}
