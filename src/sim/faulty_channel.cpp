#include "sim/faulty_channel.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

void check_config(const LinkFaultConfig& c) {
  SYNCON_REQUIRE(c.drop_probability >= 0.0 && c.drop_probability < 1.0,
                 "drop probability must be in [0, 1)");
  SYNCON_REQUIRE(c.duplicate_probability >= 0.0 &&
                     c.duplicate_probability <= 1.0,
                 "duplicate probability must be in [0, 1]");
  SYNCON_REQUIRE(c.reorder_probability >= 0.0 && c.reorder_probability <= 1.0,
                 "reorder probability must be in [0, 1]");
  SYNCON_REQUIRE(c.min_delay >= 0 && c.min_delay <= c.max_delay,
                 "delay window must be ordered and non-negative");
}

/// Stable per-link seed: mixes (seed, from, to) through SplitMix64 so each
/// directed link gets an independent stream regardless of creation order.
std::uint64_t link_seed(std::uint64_t seed, ProcessId from, ProcessId to) {
  SplitMix64 mix(seed ^ (static_cast<std::uint64_t>(from) << 32) ^
                 (static_cast<std::uint64_t>(to) + 0x9e3779b97f4a7c15ULL));
  mix.next();
  return mix.next();
}

}  // namespace

LinkFaultConfig generate_link_faults(Xoshiro256StarStar& rng) {
  LinkFaultConfig link;
  link.drop_probability = 0.05 + 0.30 * rng.uniform01();
  link.duplicate_probability = 0.05 + 0.30 * rng.uniform01();
  link.reorder_probability = 0.05 + 0.30 * rng.uniform01();
  link.min_delay = 1;
  link.max_delay = static_cast<Duration>(1 + rng.below(60));
  return link;
}

bool FaultPlan::crashed_at(ProcessId p, TimePoint t) const {
  for (const CrashWindow& w : crashes) {
    if (w.process == p && t >= w.crash_at && t < w.restart_at) return true;
  }
  return false;
}

TimePoint FaultPlan::first_crash(ProcessId p) const {
  TimePoint first = kNeverRestarts;
  for (const CrashWindow& w : crashes) {
    if (w.process == p) first = std::min(first, w.crash_at);
  }
  return first;
}

ChannelStats& ChannelStats::operator+=(const ChannelStats& o) {
  offered += o.offered;
  dropped += o.dropped;
  duplicated += o.duplicated;
  reordered += o.reordered;
  delivered += o.delivered;
  return *this;
}

FaultyChannel::FaultyChannel(const LinkFaultConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  check_config(config);
}

Duration FaultyChannel::sample_delay() {
  return config_.min_delay +
         static_cast<Duration>(rng_.uniform(
             0, static_cast<std::uint64_t>(config_.max_delay -
                                           config_.min_delay)));
}

void FaultyChannel::schedule(const WireMessage& message, TimePoint at,
                             bool duplicate) {
  Pending p;
  p.arrival = Arrival{at, message, duplicate};
  p.seq = next_seq_++;
  if (!pending_.empty() && rng_.bernoulli(config_.reorder_probability)) {
    // Swap delivery times with the most recently scheduled copy still in
    // transit: the later message overtakes it.
    std::swap(p.arrival.at, pending_.back().arrival.at);
    ++stats_.reordered;
  }
  pending_.push_back(std::move(p));
}

void FaultyChannel::push(const WireMessage& message, TimePoint sent_at) {
  ++stats_.offered;
  if (rng_.bernoulli(config_.drop_probability)) {
    ++stats_.dropped;
    return;
  }
  schedule(message, sent_at + sample_delay(), false);
  if (rng_.bernoulli(config_.duplicate_probability)) {
    ++stats_.duplicated;
    schedule(message, sent_at + sample_delay(), true);
  }
}

std::vector<Arrival> FaultyChannel::take_if(TimePoint cutoff) {
  std::vector<Pending> due;
  std::vector<Pending> rest;
  for (Pending& p : pending_) {
    (p.arrival.at <= cutoff ? due : rest).push_back(std::move(p));
  }
  pending_ = std::move(rest);
  std::sort(due.begin(), due.end(), [](const Pending& a, const Pending& b) {
    if (a.arrival.at != b.arrival.at) return a.arrival.at < b.arrival.at;
    return a.seq < b.seq;
  });
  std::vector<Arrival> out;
  out.reserve(due.size());
  for (Pending& p : due) out.push_back(std::move(p.arrival));
  stats_.delivered += out.size();
  return out;
}

std::vector<Arrival> FaultyChannel::pop_ready(TimePoint now) {
  return take_if(now);
}

std::vector<Arrival> FaultyChannel::drain() {
  return take_if(std::numeric_limits<TimePoint>::max());
}

FaultyNetwork::FaultyNetwork(std::size_t process_count, const FaultPlan& plan)
    : process_count_(process_count), plan_(plan) {
  SYNCON_REQUIRE(process_count > 0, "network needs at least one process");
  check_config(plan.link);
  for (const CrashWindow& w : plan.crashes) {
    SYNCON_REQUIRE(w.process < process_count,
                   "crash window names an unknown process");
    SYNCON_REQUIRE(w.crash_at < w.restart_at,
                   "crash window must be non-empty (crash_at < restart_at)");
  }
}

FaultyChannel& FaultyNetwork::link(ProcessId from, ProcessId to) {
  const auto it = links_.find({from, to});
  if (it != links_.end()) return it->second;
  return links_
      .emplace(std::make_pair(from, to),
               FaultyChannel(plan_.link, link_seed(plan_.seed, from, to)))
      .first->second;
}

void FaultyNetwork::push(ProcessId from, ProcessId to,
                         const WireMessage& message, TimePoint sent_at) {
  SYNCON_REQUIRE(from < process_count_ && to < process_count_,
                 "link endpoints out of range");
  SYNCON_REQUIRE(from != to, "a process does not message itself");
  if (plan_.crashed_at(from, sent_at)) {
    // A crashed sender produces nothing: the message never enters the
    // channel (and consumes none of its random stream).
    ++crash_losses_.offered;
    ++crash_losses_.dropped;
    return;
  }
  link(from, to).push(message, sent_at);
}

std::vector<Arrival> FaultyNetwork::filter_crashed(ProcessId to,
                                                   std::vector<Arrival> in) {
  std::vector<Arrival> out;
  out.reserve(in.size());
  for (Arrival& a : in) {
    if (plan_.crashed_at(to, a.at)) {
      ++crash_losses_.dropped;
      continue;
    }
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<Arrival> FaultyNetwork::pop_ready(ProcessId to, TimePoint now) {
  SYNCON_REQUIRE(to < process_count_, "process id out of range");
  std::vector<Arrival> all;
  for (ProcessId from = 0; from < process_count_; ++from) {
    if (from == to) continue;
    const auto it = links_.find({from, to});
    if (it == links_.end()) continue;
    for (Arrival& a : it->second.pop_ready(now)) {
      all.push_back(std::move(a));
    }
  }
  // Stable: ties across links resolve by sender id, deterministically.
  std::stable_sort(all.begin(), all.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at < b.at;
                   });
  return filter_crashed(to, std::move(all));
}

std::vector<Arrival> FaultyNetwork::drain(ProcessId to) {
  return pop_ready(to, std::numeric_limits<TimePoint>::max());
}

ChannelStats FaultyNetwork::stats() const {
  ChannelStats total = crash_losses_;
  for (const auto& [key, l] : links_) total += l.stats();
  return total;
}

void FaultyNetwork::publish_metrics() const {
  auto& registry = obs::MetricRegistry::global();
  const auto set = [&registry](const std::string& name, std::uint64_t v) {
    registry.gauge(name).set(static_cast<std::int64_t>(v));
  };
  for (const auto& [key, l] : links_) {
    const std::string labels = "{from=\"" + std::to_string(key.first) +
                               "\",to=\"" + std::to_string(key.second) +
                               "\"}";
    const ChannelStats& s = l.stats();
    set("syncon_link_offered" + labels, s.offered);
    set("syncon_link_dropped" + labels, s.dropped);
    set("syncon_link_duplicated" + labels, s.duplicated);
    set("syncon_link_reordered" + labels, s.reordered);
    set("syncon_link_delivered" + labels, s.delivered);
  }
  const ChannelStats total = stats();
  set("syncon_network_offered", total.offered);
  set("syncon_network_dropped", total.dropped);
  set("syncon_network_duplicated", total.duplicated);
  set("syncon_network_reordered", total.reordered);
  set("syncon_network_delivered", total.delivered);
}

}  // namespace syncon
