// service_small / service_durable: the sharded multi-tenant daemon driven in
// run_service_load's closed loop — a window of tenants, a batch of frames per
// tenant per round, one pump barrier per round — from frames encoded before
// the timed window.
//
//   service_small    many small clean tenants, no memory budget, no journal:
//                    per-frame overhead dominates (envelope CRC, routing,
//                    queueing, decode, replica restore, report ingest).
//   service_durable  fewer, wider tenants with a faulty report feed under a
//                    memory budget and a synced journal: journal appends and
//                    syncs, compaction, gap tracking and resync beside the
//                    same read path.
#include <algorithm>
#include <array>
#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "service/daemon.hpp"
#include "service/tenant_codec.hpp"
#include "sim/soak.hpp"
#include "store/storage.hpp"
#include "support/thread_pool.hpp"

namespace bench_e2e {
namespace {

using namespace syncon;
using namespace syncon::service;

// run_service_load's closed-loop discipline and the daemon's default shards.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kShards = 8;

struct Size {
  std::size_t tenants;
  std::size_t processes;
  std::uint64_t cycles;
  std::size_t memory_budget_events;  ///< 0 = unbounded
  bool durable;  ///< faulty report feed + journal
};

Size size_for(bool durable, bool tiny) {
  if (durable) {
    return tiny ? Size{12, 6, 12, 256, true} : Size{200, 16, 40, 4096, true};
  }
  return tiny ? Size{40, 3, 18, 0, false} : Size{2000, 3, 18, 0, false};
}

/// One tenant's traffic, encoded before the timed window: the hello and
/// every op as contiguous frames, plus the reference verdict log.
struct EncodedTenant {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;  ///< frame i is bytes[ends[i-1], ends[i])
  std::vector<std::string> reference_verdicts;

  std::size_t frames() const { return ends.size(); }
  std::span<const std::uint8_t> frame(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::span<const std::uint8_t>(bytes).subspan(begin,
                                                       ends[i] - begin);
  }
};

/// The durable workload's journal: a fault-free SimStorage behind a
/// forwarding wrapper that counts appends and syncs, times them when asked,
/// and keeps the byte total of the live objects (the sum of their sizes).
class MeteredStorage final : public StorageBackend {
 public:
  std::vector<std::string> list() const override { return inner_.list(); }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  void append(const std::string& name,
              std::span<const std::uint8_t> bytes) override {
    const double start = timed_ ? wall_now() : 0.0;
    inner_.append(name, bytes);
    if (timed_) append_s_ += wall_now() - start;
    ++appends_;
    live_bytes_ += bytes.size();
  }
  std::vector<std::uint8_t> read(const std::string& name) const override {
    return inner_.read(name);
  }
  std::size_t size(const std::string& name) const override {
    return inner_.size(name);
  }
  void sync(const std::string& name) override {
    const double start = timed_ ? wall_now() : 0.0;
    inner_.sync(name);
    if (timed_) sync_s_ += wall_now() - start;
    ++syncs_;
  }
  void truncate(const std::string& name, std::size_t new_size) override {
    const std::size_t old_size = inner_.size(name);
    inner_.truncate(name, new_size);
    live_bytes_ -= old_size - std::min(old_size, new_size);
  }
  void remove(const std::string& name) override {
    live_bytes_ -= inner_.size(name);
    inner_.remove(name);
  }

  void set_timed(bool timed) { timed_ = timed; }
  std::size_t live_bytes() const { return live_bytes_; }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t syncs() const { return syncs_; }
  double append_seconds() const { return append_s_; }
  double sync_seconds() const { return sync_s_; }

 private:
  SimStorage inner_;
  bool timed_ = false;
  std::size_t live_bytes_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  double append_s_ = 0.0;
  double sync_s_ = 0.0;
};

/// run_service_load's closed loop over pre-encoded tenants: kWindow tenants
/// in flight; each round every one offers up to kBatch frames in order
/// (`offer` returns false on backpressure and the frame is offered again
/// next round), then `end_round` runs; tenants retire in admission order
/// once all their frames were taken.
template <typename BeginRound, typename Offer, typename EndRound>
void closed_loop(const std::vector<EncodedTenant>& tenants,
                 BeginRound&& begin_round, Offer&& offer,
                 EndRound&& end_round) {
  struct Active {
    std::size_t tenant;
    std::size_t cursor;
  };
  std::deque<Active> active;
  std::size_t next = 0;
  while (next < tenants.size() && active.size() < kWindow) {
    active.push_back({next++, 0});
  }
  while (!active.empty()) {
    begin_round();
    for (Active& a : active) {
      const std::size_t frames = tenants[a.tenant].frames();
      for (std::size_t k = 0; k < kBatch && a.cursor < frames; ++k) {
        if (!offer(a.tenant, a.cursor)) break;
        ++a.cursor;
      }
    }
    end_round();
    while (!active.empty() &&
           active.front().cursor == tenants[active.front().tenant].frames()) {
      active.pop_front();
      if (next < tenants.size()) active.push_back({next++, 0});
    }
  }
}

class Service final : public Workload {
 public:
  Service(const Options& options, bool durable)
      : seed_(options.seed), size_(size_for(durable, options.tiny())) {}

  void setup() override {
    daemon_.reset();
    storage_.reset();
    tenants_.clear();
    tenants_.reserve(size_.tenants);
    total_frames_ = total_events_ = wire_bytes_ = 0;
    TenantFrameEncoder encoder;
    double encode_s = 0.0;
    for (std::size_t i = 0; i < size_.tenants; ++i) {
      TenantWorkload workload;
      workload.processes = size_.processes;
      workload.cycles = size_.cycles;
      if (size_.durable) {
        workload.report_link.drop_probability = 0.15;
        workload.report_link.duplicate_probability = 0.10;
        workload.report_link.reorder_probability = 0.20;
        workload.report_link.min_delay = 1;
        workload.report_link.max_delay = 24;
      }
      // Independent per-tenant streams, derived from the run's seed as
      // run_service_load derives them.
      workload.seed = seed_ ^ (0x9e3779b97f4a7c15ull * (i + 1));
      TenantScript script = generate_tenant_script(workload);

      EncodedTenant tenant;
      tenant.ends.reserve(script.ops.size() + 1);
      const double start = wall_now();
      encoder.encode_hello(i, script.processes, script.resync_chunk,
                           tenant.bytes);
      tenant.ends.push_back(tenant.bytes.size());
      for (const TenantOp& op : script.ops) {
        encoder.encode_op(i, op, tenant.bytes);
        tenant.ends.push_back(tenant.bytes.size());
      }
      encode_s += wall_now() - start;
      encoder.release(i);
      tenant.reference_verdicts = std::move(script.reference_verdicts);
      total_frames_ += tenant.frames();
      total_events_ += script.executed_events;
      wire_bytes_ += tenant.bytes.size();
      tenants_.push_back(std::move(tenant));
    }
    encode_ns_per_frame_ =
        1e9 * ratio(encode_s, static_cast<double>(total_frames_));
    first_attempt_.assign(size_.tenants, 0.0);
    latencies_.reserve(total_frames_);
    accepted_.reserve(kWindow * kBatch);
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(host_cpus());
  }

  void prepare() override {
    daemon_.reset();
    storage_.reset();
    DaemonOptions options;
    options.shards = kShards;
    options.memory_budget_events = size_.memory_budget_events;
    if (size_.durable) {
      storage_ = std::make_unique<MeteredStorage>();
      options.journal = storage_.get();
    }
    daemon_ = std::make_unique<MonitorDaemon>(options, *pool_);
    std::fill(first_attempt_.begin(), first_attempt_.end(), 0.0);
    latencies_.clear();
    accepted_.clear();
    rejected_ = 0;
    rounds_ = 0;
    journal_peak_ = 0;
  }

  void execute(Mode mode) override {
    last_mode_ = mode;
    SpanLog* log = nullptr;
    if (mode == Mode::kTraced) {
      spans_.clear();
      log = &spans_;
    }
    if (storage_ != nullptr) storage_->set_timed(log != nullptr);
    ScopedSpan job(log, "job");
    std::optional<ScopedSpan> submitting;
    closed_loop(
        tenants_, [&] { submitting.emplace(log, "service.submit"); },
        [&](std::size_t tenant, std::size_t frame) {
          // Ingest latency runs from a frame's first submit attempt, so a
          // rejected frame counts the wait backpressure imposed on it.
          double& since = first_attempt_[tenant];
          if (since == 0.0) since = wall_now();
          if (!daemon_->submit(tenants_[tenant].frame(frame)).accepted) {
            ++rejected_;
            return false;
          }
          accepted_.push_back(since);
          since = 0.0;
          return true;
        },
        [&] {
          submitting.reset();
          {
            ScopedSpan pump(log, "service.pump");
            daemon_->pump();
          }
          const double applied = wall_now();
          for (const double since : accepted_) {
            latencies_.push_back(applied - since);
          }
          accepted_.clear();
          ++rounds_;
          if (storage_ != nullptr) {
            journal_peak_ = std::max(journal_peak_, storage_->live_bytes());
          }
        });
  }

  void verify(Gates& gates) override {
    std::uint64_t diverged = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const TenantSessionCore* core = daemon_->session(i);
      if (core == nullptr || core->quarantined() != 0 ||
          core->definite_verdicts() != tenants_[i].reference_verdicts) {
        ++diverged;
      }
    }
    gates.add(tenants_.size(), diverged,
              "service: tenants diverged from their reference verdicts or "
              "had frames quarantined");
    stats_ = daemon_->stats();
    gates.add(1,
              stats_.frames_quarantined != 0 ||
                      stats_.frames_applied != total_frames_
                  ? 1
                  : 0,
              "service: the daemon did not apply every frame cleanly");
    if (last_mode_ == Mode::kPlain) {
      plain_.add("service.ingest_p50_us", 1e6 * quantile(latencies_, 0.50));
      plain_.add("service.ingest_p99_us", 1e6 * quantile(latencies_, 0.99));
    }
  }

  void after_traced(Gates& gates) override {
    const double frames = static_cast<double>(total_frames_);
    samples_.add("service.submit_ns_per_frame",
                 1e9 * ratio(spans_.total_seconds("service.submit"), frames));
    samples_.add("service.pump_us_per_round",
                 1e6 * ratio(spans_.total_seconds("service.pump"),
                             static_cast<double>(rounds_)));
    samples_.add("service.reject_frac",
                 ratio(static_cast<double>(rejected_),
                       frames + static_cast<double>(rejected_)));
    samples_.add("online.live_events_peak",
                 static_cast<double>(stats_.live_log_peak));
    samples_.add("bench.span_coverage_frac", span_coverage(spans_));
    if (storage_ != nullptr) {
      samples_.add("store.append_ns",
                   1e9 * ratio(storage_->append_seconds(),
                               static_cast<double>(storage_->appends())));
      samples_.add("store.sync_ns",
                   1e9 * ratio(storage_->sync_seconds(),
                               static_cast<double>(storage_->syncs())));
      samples_.add("store.syncs_per_frame",
                   ratio(static_cast<double>(storage_->syncs()), frames));
      samples_.add("store.journal_bytes_per_frame",
                   ratio(static_cast<double>(storage_->live_bytes()), frames));
      samples_.add("store.journal_bytes_peak",
                   static_cast<double>(journal_peak_));
    }
    replay(gates);
  }

  LayerValues layer_metrics(double plain_job_s) override {
    LayerValues values = samples_.medians();
    for (const auto& [name, value] : plain_.medians()) values[name] = value;
    values["service.frames_per_s"] =
        ratio(static_cast<double>(total_frames_), plain_job_s);
    return values;
  }

  std::size_t pool_threads() const override { return host_cpus(); }

 private:
  /// Serial replay of the same frames into fresh sessions, in the load's
  /// round order, timing each layer call the daemon makes on its pool:
  /// peek_frame, TenantStreamDecoder::decode and TenantSessionCore::apply
  /// (by op kind, with its allocations). Between rounds it applies the
  /// daemon's memory-budget policy, timing each compact_at_pin.
  void replay(Gates& gates) {
    struct Replica {
      Replica(std::size_t processes, std::size_t chunk, std::uint64_t seq)
          : decoder(processes, seq), core(processes, chunk) {}
      TenantStreamDecoder decoder;
      TenantSessionCore core;
    };
    using Kind = TenantOp::Kind;
    constexpr std::size_t kKinds =
        static_cast<std::size_t>(Kind::kCheckpoint) + 1;
    std::vector<std::unique_ptr<Replica>> replicas(tenants_.size());
    std::array<double, kKinds> apply_s{};
    std::array<std::uint64_t, kKinds> apply_n{};
    double peek_s = 0.0, decode_s = 0.0, compact_s = 0.0;
    std::uint64_t ops = 0, allocs = 0, refused = 0;
    std::uint64_t compact_calls = 0, compactions = 0, reclaimed = 0;

    closed_loop(
        tenants_, [] {},
        [&](std::size_t tenant, std::size_t index) {
          FrameView view;
          const double t0 = wall_now();
          const bool whole = peek_frame(tenants_[tenant].frame(index), view) ==
                             PeekStatus::kOk;
          const double t1 = wall_now();
          peek_s += t1 - t0;
          if (!whole) {
            ++refused;
            return true;
          }
          if (view.kind == FrameKind::kHello) {
            std::size_t processes = 0, chunk = 0;
            if (decode_hello(view, processes, chunk)) {
              replicas[tenant] =
                  std::make_unique<Replica>(processes, chunk, view.seq);
            } else {
              ++refused;
            }
            return true;
          }
          Replica* replica = replicas[tenant].get();
          TenantOp op;
          if (replica == nullptr || !replica->decoder.decode(view, op)) {
            ++refused;
            return true;
          }
          const double t2 = wall_now();
          decode_s += t2 - t1;
          const std::uint64_t before = thread_allocations();
          replica->core.apply(op);
          allocs += thread_allocations() - before;
          const auto kind = static_cast<std::size_t>(op.kind);
          apply_s[kind] += wall_now() - t2;
          ++apply_n[kind];
          ++ops;
          return true;
        },
        [&] {
          if (size_.memory_budget_events == 0) return;
          // MonitorDaemon's policy: laggiest sessions first, tenant id
          // breaking ties, until the budget holds.
          std::vector<std::pair<std::size_t, std::size_t>> candidates;
          std::size_t total = 0;
          for (std::size_t t = 0; t < replicas.size(); ++t) {
            if (replicas[t] == nullptr) continue;
            const std::size_t live =
                replicas[t]->core.system().live_log_events();
            total += live;
            candidates.emplace_back(live, t);
          }
          if (total <= size_.memory_budget_events) return;
          std::sort(candidates.begin(), candidates.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
          for (const auto& candidate : candidates) {
            const double t0 = wall_now();
            const std::size_t got =
                replicas[candidate.second]->core.compact_at_pin();
            compact_s += wall_now() - t0;
            ++compact_calls;
            if (got > 0) {
              ++compactions;
              reclaimed += got;
              total -= got;
            }
            if (total <= size_.memory_budget_events) break;
          }
        });

    std::uint64_t diverged = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const Replica* replica = replicas[i].get();
      if (replica == nullptr || replica->core.quarantined() != 0 ||
          replica->core.definite_verdicts() !=
              tenants_[i].reference_verdicts) {
        ++diverged;
      }
    }
    gates.add(tenants_.size(), diverged,
              "service: the serial replay diverged from the references");
    gates.add(1, refused != 0 ? 1 : 0,
              "service: the serial replay refused frames");

    const auto apply_ns = [&](std::initializer_list<Kind> kinds) {
      double seconds = 0.0;
      std::uint64_t count = 0;
      for (const Kind kind : kinds) {
        seconds += apply_s[static_cast<std::size_t>(kind)];
        count += apply_n[static_cast<std::size_t>(kind)];
      }
      return 1e9 * ratio(seconds, static_cast<double>(count));
    };
    const double frames = static_cast<double>(total_frames_);
    samples_.add("service.peek_ns_per_frame", 1e9 * ratio(peek_s, frames));
    samples_.add("service.decode_ns_per_frame",
                 1e9 * ratio(decode_s, static_cast<double>(ops)));
    samples_.add("service.wire_bytes_per_frame",
                 ratio(static_cast<double>(wire_bytes_), frames));
    samples_.add("service.wire_bytes_per_event",
                 ratio(static_cast<double>(wire_bytes_),
                       static_cast<double>(total_events_)));
    samples_.add("service.encode_ns_per_frame", encode_ns_per_frame_);
    samples_.add("online.event_apply_ns", apply_ns({Kind::kEvent}));
    samples_.add("online.report_apply_ns", apply_ns({Kind::kReport}));
    samples_.add("online.checkpoint_apply_ns", apply_ns({Kind::kCheckpoint}));
    samples_.add("online.lifecycle_apply_ns",
                 apply_ns({Kind::kBegin, Kind::kWatch, Kind::kComplete,
                           Kind::kForget}));
    samples_.add("online.allocs_per_op", ratio(static_cast<double>(allocs),
                                               static_cast<double>(ops)));
    samples_.add("online.compact_us",
                 1e6 * ratio(compact_s, static_cast<double>(compact_calls)));
    samples_.add("online.reclaimed_per_compaction",
                 ratio(static_cast<double>(reclaimed),
                       static_cast<double>(compactions)));
  }

  std::uint64_t seed_;
  Size size_;
  std::vector<EncodedTenant> tenants_;
  std::uint64_t total_frames_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t wire_bytes_ = 0;
  double encode_ns_per_frame_ = 0.0;
  // Declared before the daemon, which uses both.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MeteredStorage> storage_;
  std::unique_ptr<MonitorDaemon> daemon_;
  std::vector<double> first_attempt_;  ///< per tenant; 0 = no frame pending
  std::vector<double> accepted_;       ///< first attempts taken this round
  std::vector<double> latencies_;      ///< seconds, one per frame
  std::uint64_t rejected_ = 0;
  std::uint64_t rounds_ = 0;
  std::size_t journal_peak_ = 0;
  Mode last_mode_ = Mode::kPlain;
  DaemonStats stats_;
  SpanLog spans_;
  LayerSamples samples_;
  LayerSamples plain_;
};

}  // namespace

std::unique_ptr<Workload> make_service(const Options& options, bool durable) {
  return std::make_unique<Service>(options, durable);
}

}  // namespace bench_e2e
