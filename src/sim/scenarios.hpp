// The distributed real-time application scenarios the paper motivates in its
// introduction (industrial process control, multimedia, mobile coordination,
// and the air-defence control system of reference [11]). Each generator
// produces an execution together with the labeled nonatomic events an
// application-level monitor would care about.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/execution.hpp"
#include "nonatomic/interval.hpp"

namespace syncon {

/// An execution plus its application-level nonatomic events. The execution
/// is heap-held so the intervals' back-references stay valid across moves.
class Scenario {
 public:
  Scenario(std::string name, std::shared_ptr<const Execution> exec,
           std::vector<NonatomicEvent> intervals);

  const std::string& name() const { return name_; }
  const Execution& execution() const { return *exec_; }
  std::shared_ptr<const Execution> execution_ptr() const { return exec_; }
  const std::vector<NonatomicEvent>& intervals() const { return intervals_; }

  /// First interval whose label equals `label` (contract: it exists).
  const NonatomicEvent& interval(const std::string& label) const;

 private:
  std::string name_;
  std::shared_ptr<const Execution> exec_;
  std::vector<NonatomicEvent> intervals_;
};

/// Air-defence control (use case of [11]): radars detect, a track processor
/// fuses, a command post authorizes, batteries engage. Per round k the
/// intervals are detect/k, track/k, decide/k, engage/k.
struct AirDefenseConfig {
  std::size_t radars = 3;
  std::size_t batteries = 2;
  std::size_t rounds = 4;
  std::size_t detections_per_radar = 3;  // local burst size cap
  std::uint64_t seed = 42;
};
Scenario make_air_defense(const AirDefenseConfig& cfg = {});

/// Industrial process control: sensors sample, a controller computes, the
/// actuators apply; actuators feed status back into the next cycle.
/// Intervals per cycle k: sample/k, compute/k, actuate/k.
struct ProcessControlConfig {
  std::size_t sensors = 4;
  std::size_t actuators = 2;
  std::size_t cycles = 5;
  std::uint64_t seed = 7;
};
Scenario make_process_control(const ProcessControlConfig& cfg = {});

/// Distributed multimedia: a server multicasts frame groups; clients decode
/// and render, returning sync feedback every few groups. Intervals per group
/// k: dispatch/k (server), render/k (all clients).
struct MultimediaConfig {
  std::size_t clients = 3;
  std::size_t groups = 6;
  std::size_t frames_per_group = 3;
  std::size_t feedback_period = 2;  // groups between client feedback
  std::uint64_t seed = 11;
};
Scenario make_multimedia(const MultimediaConfig& cfg = {});

/// A replica of the paper's Figure 2/3 setting: a four-node execution whose
/// eight-event poset "X" is chained by messages 0→1→2→3, making the four
/// cuts C1(X)..C4(X) (and the proxy cuts of Figure 3) pairwise distinct.
/// The scenario carries intervals "X", "L(X)" and "U(X)".
Scenario make_figure2();

/// Mobile coordination: hosts attached to base stations exchange bursts;
/// each host periodically hands off to the next station (deregister +
/// register + forwarding). Intervals: session/k per communication burst and
/// handoff/h/k per handoff (spanning host, old and new station).
struct MobileConfig {
  std::size_t hosts = 2;
  std::size_t stations = 3;
  std::size_t rounds = 4;
  std::uint64_t seed = 23;
};
Scenario make_mobile(const MobileConfig& cfg = {});

}  // namespace syncon
