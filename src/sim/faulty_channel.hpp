// Deterministic, seeded fault injection for message channels (DESIGN.md
// §3.7): every way a real network can betray the protocol layer — drop,
// duplicate, reorder, delay — plus scheduled process crash-and-restart
// windows, all reproducible from a single 64-bit seed. The fault schedule
// of a link depends only on (seed, from, to) and the order of pushes on
// that link, so a scenario replayed with the same seed injects exactly the
// same faults, which is what lets tests assert "faulty run + recovery ≡
// fault-free run" bit-for-bit.
//
// The channel carries WireMessages (clock-stamped event records), so the
// same machinery stresses both the application path (OnlineSystem::deliver)
// and the monitoring path (OnlineMonitor::observe of event reports).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "online/online_system.hpp"
#include "support/rng.hpp"
#include "timing/physical_time.hpp"

namespace syncon {

/// Fault rates and delay window of one directed link.
struct LinkFaultConfig {
  /// Probability a pushed message vanishes in transit.
  double drop_probability = 0.0;
  /// Probability a pushed message is delivered twice (independent delays).
  double duplicate_probability = 0.0;
  /// Probability a scheduled arrival swaps delivery times with the most
  /// recently scheduled pending arrival (forcing an inversion when their
  /// delays differ).
  double reorder_probability = 0.0;
  /// Transit delay window (µs), sampled uniformly per copy.
  Duration min_delay = 1;
  Duration max_delay = 1;
};

/// Samples a lossy-but-recoverable link: drop, duplicate and reorder rates
/// in [0.05, 0.35] and a delay window of [1, 1..60] µs — heavy enough to
/// exercise every degraded-mode path, light enough that recovery terminates
/// quickly.
LinkFaultConfig generate_link_faults(Xoshiro256StarStar& rng);

/// One crash window: `process` is down in [crash_at, restart_at). While
/// down it neither sends nor receives; messages addressed to it in the
/// window are lost. Use kNeverRestarts for a permanent crash.
struct CrashWindow {
  ProcessId process = 0;
  TimePoint crash_at = 0;
  TimePoint restart_at = 0;
};

/// Sentinel restart time for a process that never comes back.
inline constexpr TimePoint kNeverRestarts =
    std::numeric_limits<TimePoint>::max();

/// Full deterministic fault schedule for a system: link faults (one default
/// config, overridable per link) + crash windows + the master seed.
struct FaultPlan {
  LinkFaultConfig link;
  std::vector<CrashWindow> crashes;
  std::uint64_t seed = 1;

  /// True iff p is inside some crash window at time t.
  bool crashed_at(ProcessId p, TimePoint t) const;
  /// Earliest crash_at of p's windows, or kNeverRestarts if p never crashes.
  TimePoint first_crash(ProcessId p) const;
};

/// One copy of a message in transit (or delivered).
struct Arrival {
  TimePoint at = 0;
  WireMessage message;
  /// True for the extra copy a duplication fault created.
  bool duplicate_copy = false;
};

/// What the channel did to the traffic so far.
struct ChannelStats {
  std::uint64_t offered = 0;     ///< messages pushed
  std::uint64_t dropped = 0;     ///< vanished in transit
  std::uint64_t duplicated = 0;  ///< extra copies injected
  std::uint64_t reordered = 0;   ///< delivery-time swaps performed
  std::uint64_t delivered = 0;   ///< arrivals handed out by pop_ready/drain

  ChannelStats& operator+=(const ChannelStats& o);
  bool operator==(const ChannelStats&) const = default;
};

/// One directed lossy link. Push messages with their send time; pop the
/// arrivals whose (faulted) delivery time has come, in delivery order.
class FaultyChannel {
 public:
  FaultyChannel(const LinkFaultConfig& config, std::uint64_t seed);

  /// Ships one message at `sent_at`, applying drop / duplicate / reorder /
  /// delay faults. Lost messages leave no trace but the stats.
  void push(const WireMessage& message, TimePoint sent_at);

  /// Removes and returns every arrival with at <= now, ordered by delivery
  /// time (ties: scheduling order).
  std::vector<Arrival> pop_ready(TimePoint now);

  /// Removes and returns everything still in transit, in delivery order.
  std::vector<Arrival> drain();

  std::size_t in_transit() const { return pending_.size(); }
  const ChannelStats& stats() const { return stats_; }

 private:
  struct Pending {
    Arrival arrival;
    std::uint64_t seq = 0;  // scheduling order, tiebreak + reorder target
  };

  Duration sample_delay();
  void schedule(const WireMessage& message, TimePoint at, bool duplicate);
  std::vector<Arrival> take_if(TimePoint cutoff);

  LinkFaultConfig config_;
  Xoshiro256StarStar rng_;
  std::vector<Pending> pending_;
  ChannelStats stats_;
  std::uint64_t next_seq_ = 0;
};

/// All directed links of a system under one FaultPlan. Links are created
/// lazily; each link's RNG stream is derived from (plan.seed, from, to), so
/// the fault schedule of a link is independent of traffic elsewhere.
class FaultyNetwork {
 public:
  FaultyNetwork(std::size_t process_count, const FaultPlan& plan);

  /// Ships from → to at `sent_at`. A message sent by a crashed process, or
  /// pushed to a process whose crash window covers the send, is dropped at
  /// the sender (counted in the link's stats).
  void push(ProcessId from, ProcessId to, const WireMessage& message,
            TimePoint sent_at);

  /// Arrivals at `to` due by `now`, across all inbound links, in delivery
  /// order. Arrivals landing inside one of to's crash windows are lost.
  std::vector<Arrival> pop_ready(ProcessId to, TimePoint now);

  /// Everything still in transit to `to` (crash windows still apply).
  std::vector<Arrival> drain(ProcessId to);

  std::size_t process_count() const { return process_count_; }
  const FaultPlan& plan() const { return plan_; }
  /// Aggregate stats across all links.
  ChannelStats stats() const;

  /// Mirrors the per-link fault counters into MetricRegistry::global() as
  /// labeled gauges (syncon_link_dropped{from="0",to="1"}, ...) plus the
  /// aggregate syncon_network_* family — exporters then show exactly what
  /// stats() reports.
  void publish_metrics() const;

 private:
  FaultyChannel& link(ProcessId from, ProcessId to);
  std::vector<Arrival> filter_crashed(ProcessId to, std::vector<Arrival> in);

  std::size_t process_count_;
  FaultPlan plan_;
  std::map<std::pair<ProcessId, ProcessId>, FaultyChannel> links_;
  ChannelStats crash_losses_;  // arrivals eaten by receiver crash windows
};

}  // namespace syncon
