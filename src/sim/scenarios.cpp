#include "sim/scenarios.hpp"

#include <initializer_list>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace syncon {

namespace {

/// "/a/b…": the per-round suffix of a scenario's interval labels.
std::string label_suffix(std::initializer_list<std::size_t> parts) {
  std::string suffix;
  for (const std::size_t part : parts) {
    suffix += '/';
    suffix += std::to_string(part);
  }
  return suffix;
}

}  // namespace

Scenario::Scenario(std::string name, std::shared_ptr<const Execution> exec,
                   std::vector<NonatomicEvent> intervals)
    : name_(std::move(name)),
      exec_(std::move(exec)),
      intervals_(std::move(intervals)) {}

const NonatomicEvent& Scenario::interval(const std::string& label) const {
  for (const NonatomicEvent& iv : intervals_) {
    if (iv.label() == label) return iv;
  }
  SYNCON_REQUIRE(false, "no interval labeled '" + label + "'");
  return intervals_.front();  // unreachable
}

Scenario make_air_defense(const AirDefenseConfig& cfg) {
  SYNCON_REQUIRE(cfg.radars >= 1 && cfg.batteries >= 1 && cfg.rounds >= 1,
                 "air defence needs radars, batteries and rounds");
  const std::size_t p_count = cfg.radars + 2 + cfg.batteries;
  const ProcessId fusion = static_cast<ProcessId>(cfg.radars);
  const ProcessId command = static_cast<ProcessId>(cfg.radars + 1);
  const auto battery0 = static_cast<ProcessId>(cfg.radars + 2);

  ExecutionBuilder b(p_count);
  Xoshiro256StarStar rng(cfg.seed);

  struct Pending {
    std::string label;
    std::vector<EventId> events;
  };
  std::vector<Pending> intervals;

  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    const std::string suffix = label_suffix({round});
    // 1. Radars detect: a burst of detection events, then a track report.
    std::vector<MessageToken> reports;
    Pending detect{"detect" + suffix, {}};
    for (ProcessId r = 0; r < cfg.radars; ++r) {
      const std::uint64_t burst =
          rng.burst(0.5, std::max<std::size_t>(cfg.detections_per_radar, 1));
      for (std::uint64_t k = 0; k < burst; ++k) {
        detect.events.push_back(b.local(r));
      }
      EventId report_event;
      reports.push_back(b.send(r, &report_event));
      detect.events.push_back(report_event);
    }
    intervals.push_back(std::move(detect));

    // 2. Track fusion: gather all reports, correlate, brief command.
    Pending track{"track" + suffix, {}};
    track.events.push_back(b.receive_all(fusion, reports));
    track.events.push_back(b.local(fusion));  // correlation
    EventId brief_event;
    const MessageToken brief = b.send(fusion, &brief_event);
    track.events.push_back(brief_event);
    intervals.push_back(std::move(track));

    // 3. Command decides and issues engage orders to every battery.
    Pending decide{"decide" + suffix, {}};
    decide.events.push_back(b.receive(command, brief));
    decide.events.push_back(b.local(command));  // threat evaluation
    EventId order_event;
    const MessageToken order = b.send(command, &order_event);
    decide.events.push_back(order_event);
    intervals.push_back(std::move(decide));

    // 4. Batteries engage: accept order, launch, report kill assessment to
    //    command (consumed next round by the command post's local work).
    Pending engage{"engage" + suffix, {}};
    std::vector<MessageToken> assessments;
    for (std::size_t i = 0; i < cfg.batteries; ++i) {
      const auto bat = static_cast<ProcessId>(battery0 + i);
      engage.events.push_back(b.receive(bat, order));
      engage.events.push_back(b.local(bat));  // launch
      EventId assess_event;
      assessments.push_back(b.send(bat, &assess_event));
      engage.events.push_back(assess_event);
    }
    intervals.push_back(std::move(engage));
    b.receive_all(command, assessments);  // battle damage assessment
  }

  auto exec = std::make_shared<const Execution>(b.build());
  std::vector<NonatomicEvent> events;
  events.reserve(intervals.size());
  for (Pending& p : intervals) {
    events.emplace_back(*exec, std::move(p.events), std::move(p.label));
  }
  return Scenario("air-defense", std::move(exec), std::move(events));
}

Scenario make_process_control(const ProcessControlConfig& cfg) {
  SYNCON_REQUIRE(cfg.sensors >= 1 && cfg.actuators >= 1 && cfg.cycles >= 1,
                 "process control needs sensors, actuators and cycles");
  const std::size_t p_count = cfg.sensors + 1 + cfg.actuators;
  const ProcessId controller = static_cast<ProcessId>(cfg.sensors);
  const auto actuator0 = static_cast<ProcessId>(cfg.sensors + 1);

  ExecutionBuilder b(p_count);
  Xoshiro256StarStar rng(cfg.seed);

  struct Pending {
    std::string label;
    std::vector<EventId> events;
  };
  std::vector<Pending> intervals;
  std::vector<MessageToken> feedback;  // actuator status from previous cycle

  for (std::size_t cycle = 0; cycle < cfg.cycles; ++cycle) {
    const std::string suffix = label_suffix({cycle});
    // Sensors sample (some take several readings) and transmit.
    Pending sample{"sample" + suffix, {}};
    std::vector<MessageToken> readings;
    for (ProcessId s = 0; s < cfg.sensors; ++s) {
      const std::uint64_t n = rng.burst(0.4, 3);
      for (std::uint64_t k = 0; k < n; ++k) sample.events.push_back(b.local(s));
      EventId tx;
      readings.push_back(b.send(s, &tx));
      sample.events.push_back(tx);
    }
    intervals.push_back(std::move(sample));

    // Controller folds in last cycle's actuator feedback, then computes.
    Pending compute{"compute" + suffix, {}};
    for (const MessageToken& f : feedback) {
      compute.events.push_back(b.receive(controller, f));
    }
    feedback.clear();
    compute.events.push_back(b.receive_all(controller, readings));
    compute.events.push_back(b.local(controller));  // control law
    EventId cmd_event;
    const MessageToken command = b.send(controller, &cmd_event);
    compute.events.push_back(cmd_event);
    intervals.push_back(std::move(compute));

    // Actuators apply the setpoint and emit status.
    Pending actuate{"actuate" + suffix, {}};
    for (std::size_t i = 0; i < cfg.actuators; ++i) {
      const auto a = static_cast<ProcessId>(actuator0 + i);
      actuate.events.push_back(b.receive(a, command));
      actuate.events.push_back(b.local(a));  // physical adjustment
      EventId status;
      feedback.push_back(b.send(a, &status));
      actuate.events.push_back(status);
    }
    intervals.push_back(std::move(actuate));
  }
  // Close the loop so the trailing feedback is consumed.
  for (const MessageToken& f : feedback) b.receive(controller, f);

  auto exec = std::make_shared<const Execution>(b.build());
  std::vector<NonatomicEvent> events;
  events.reserve(intervals.size());
  for (Pending& p : intervals) {
    events.emplace_back(*exec, std::move(p.events), std::move(p.label));
  }
  return Scenario("process-control", std::move(exec), std::move(events));
}

Scenario make_multimedia(const MultimediaConfig& cfg) {
  SYNCON_REQUIRE(cfg.clients >= 1 && cfg.groups >= 1,
                 "multimedia needs clients and frame groups");
  const std::size_t p_count = 1 + cfg.clients;
  const ProcessId server = 0;

  ExecutionBuilder b(p_count);
  Xoshiro256StarStar rng(cfg.seed);

  struct Pending {
    std::string label;
    std::vector<EventId> events;
  };
  std::vector<Pending> intervals;
  std::vector<MessageToken> pending_feedback;

  for (std::size_t g = 0; g < cfg.groups; ++g) {
    const std::string suffix = label_suffix({g});
    // Server encodes and multicasts the frame group.
    Pending dispatch{"dispatch" + suffix, {}};
    for (const MessageToken& f : pending_feedback) {
      dispatch.events.push_back(b.receive(server, f));  // rate adaptation
    }
    pending_feedback.clear();
    for (std::size_t k = 0; k + 1 < cfg.frames_per_group; ++k) {
      dispatch.events.push_back(b.local(server));  // encode
    }
    EventId mcast_event;
    const MessageToken mcast = b.send(server, &mcast_event);
    dispatch.events.push_back(mcast_event);
    intervals.push_back(std::move(dispatch));

    // Clients decode and render; some jitter in local work.
    Pending render{"render" + suffix, {}};
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      const auto client = static_cast<ProcessId>(1 + c);
      render.events.push_back(b.receive(client, mcast));
      const std::uint64_t jitter = rng.burst(0.3, 2);
      for (std::uint64_t k = 0; k < jitter; ++k) {
        render.events.push_back(b.local(client));  // decode + present
      }
      if (cfg.feedback_period != 0 && g % cfg.feedback_period == 0) {
        EventId fb;
        pending_feedback.push_back(b.send(client, &fb));
        render.events.push_back(fb);
      }
    }
    intervals.push_back(std::move(render));
  }
  for (const MessageToken& f : pending_feedback) b.receive(server, f);

  auto exec = std::make_shared<const Execution>(b.build());
  std::vector<NonatomicEvent> events;
  events.reserve(intervals.size());
  for (Pending& p : intervals) {
    events.emplace_back(*exec, std::move(p.events), std::move(p.label));
  }
  return Scenario("multimedia", std::move(exec), std::move(events));
}

Scenario make_figure2() {
  ExecutionBuilder b(4);
  std::vector<EventId> xs;
  xs.push_back(b.local(0));           // x01 = 0.1
  xs.push_back(b.local(0));           // x02 = 0.2
  const MessageToken s0 = b.send(0);  // 0.3
  b.receive(1, s0);                   // 1.1
  xs.push_back(b.local(1));           // x11 = 1.2
  xs.push_back(b.local(1));           // x12 = 1.3
  const MessageToken s1 = b.send(1);  // 1.4
  b.receive(2, s1);                   // 2.1
  xs.push_back(b.local(2));           // x21 = 2.2
  xs.push_back(b.local(2));           // x22 = 2.3
  const MessageToken s2 = b.send(2);  // 2.4
  b.receive(3, s2);                   // 3.1
  xs.push_back(b.local(3));           // x31 = 3.2
  xs.push_back(b.local(3));           // x32 = 3.3
  b.local(0);                         // tail events outside X
  b.local(1);
  b.local(3);
  auto exec = std::make_shared<const Execution>(b.build());
  NonatomicEvent x(*exec, xs, "X");
  std::vector<NonatomicEvent> intervals;
  intervals.push_back(x.proxy_per_node(ProxyKind::Begin));  // "L(X)"
  intervals.push_back(x.proxy_per_node(ProxyKind::End));    // "U(X)"
  intervals.insert(intervals.begin(), std::move(x));
  return Scenario("figure2", std::move(exec), std::move(intervals));
}

Scenario make_mobile(const MobileConfig& cfg) {
  SYNCON_REQUIRE(cfg.hosts >= 1 && cfg.stations >= 2 && cfg.rounds >= 1,
                 "mobile coordination needs hosts and at least two stations");
  // Processes: hosts first, then stations.
  const std::size_t p_count = cfg.hosts + cfg.stations;
  auto station_pid = [&](std::size_t s) {
    return static_cast<ProcessId>(cfg.hosts + s);
  };

  ExecutionBuilder b(p_count);
  Xoshiro256StarStar rng(cfg.seed);

  struct Pending {
    std::string label;
    std::vector<EventId> events;
  };
  std::vector<Pending> intervals;
  // Hosts start spread across the stations so concurrent sessions exist.
  std::vector<std::size_t> attached(cfg.hosts);
  for (std::size_t h = 0; h < cfg.hosts; ++h) attached[h] = h % cfg.stations;

  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    // All sessions of the round first: sessions of hosts on different
    // stations stay mutually concurrent.
    for (std::size_t h = 0; h < cfg.hosts; ++h) {
      const auto host = static_cast<ProcessId>(h);
      const std::string tag = label_suffix({h, round});

      // Communication burst through the current station.
      Pending session{"session" + tag, {}};
      const ProcessId st = station_pid(attached[h]);
      EventId up_event;
      const MessageToken up = b.send(host, &up_event);
      session.events.push_back(up_event);
      session.events.push_back(b.receive(st, up));
      session.events.push_back(b.local(st));  // relay bookkeeping
      EventId down_event;
      const MessageToken down = b.send(st, &down_event);
      session.events.push_back(down_event);
      session.events.push_back(b.receive(host, down));
      const std::uint64_t work = rng.burst(0.4, 3);
      for (std::uint64_t k = 0; k < work; ++k) {
        session.events.push_back(b.local(host));
      }
      intervals.push_back(std::move(session));
    }
    // Then the handoffs (skipped on the final round).
    for (std::size_t h = 0; h < cfg.hosts; ++h) {
      const auto host = static_cast<ProcessId>(h);
      const std::string tag = label_suffix({h, round});
      if (round + 1 < cfg.rounds) {
        const std::size_t next = (attached[h] + 1) % cfg.stations;
        Pending handoff{"handoff" + tag, {}};
        const ProcessId old_st = station_pid(attached[h]);
        const ProcessId new_st = station_pid(next);
        EventId dereg_event;
        const MessageToken dereg = b.send(host, &dereg_event);
        handoff.events.push_back(dereg_event);
        handoff.events.push_back(b.receive(old_st, dereg));
        EventId fwd_event;
        const MessageToken fwd = b.send(old_st, &fwd_event);  // context
        handoff.events.push_back(fwd_event);
        handoff.events.push_back(b.receive(new_st, fwd));
        EventId ack_event;
        const MessageToken ack = b.send(new_st, &ack_event);
        handoff.events.push_back(ack_event);
        handoff.events.push_back(b.receive(host, ack));
        intervals.push_back(std::move(handoff));
        attached[h] = next;
      }
    }
  }

  auto exec = std::make_shared<const Execution>(b.build());
  std::vector<NonatomicEvent> events;
  events.reserve(intervals.size());
  for (Pending& p : intervals) {
    events.emplace_back(*exec, std::move(p.events), std::move(p.label));
  }
  return Scenario("mobile", std::move(exec), std::move(events));
}

}  // namespace syncon
