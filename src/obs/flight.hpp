// Always-on flight recorder (DESIGN.md §3.13): a fixed-size lock-free ring
// of compact structured records written from every subsystem — deliveries,
// duplicates, gap transitions, resync traffic, compactions, WAL activity,
// quarantines, crashes, recoveries. The ring is the crash black box: when
// something goes wrong (a quarantined frame, a recovery, a SYNCON_REQUIRE
// failure) the last `capacity` records show what the system was doing just
// before, and can be dumped automatically to a configured file. A second
// instance, FlightRecorder::spans(), holds the closed SYNCON_SPANs
// (obs/span.hpp) as kSpan records, so spans never evict incident records.
//
// Cost model. Disabled (the default), obs::flight() is one relaxed atomic
// load and a branch — no clock read, no allocation, no lock (the same
// contract as SYNCON_SPAN). Enabled, a record is one fetch_add on the
// ring's sequence plus six relaxed/release atomic stores into a
// pre-allocated slot, and no lock: concurrent writers never block each
// other and never allocate. Readers (dump()) validate each slot with a
// seqlock stamp, so a record overwritten mid-read is skipped, never torn —
// which also makes writer/reader interleavings ThreadSanitizer-clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "model/types.hpp"

namespace syncon::obs {

/// What happened. Kept in sync with to_string() and DESIGN.md §3.13.
enum class FlightKind : std::uint8_t {
  kDelivery = 0,      // receiver consumed a fresh message (a = source id)
  kDuplicate,         // duplicate delivery suppressed (a = source id)
  kGapOpen,           // monitor gap opened (a = missing count)
  kGapClose,          // monitor gap closed (a = reports, b = wall µs open)
  kResyncRequest,     // resync request issued (a = events, b = attempt #)
  kResyncServe,       // authoritative log served (a = asked, b = answered)
  kCompact,           // log compacted (a = reclaimed, b = live after)
  kWalSync,           // WAL fsync (a = records, b = bytes appended)
  kWalRotate,         // WAL segment rotated (a = new segment seq)
  kSnapshot,          // durable snapshot written (a = checkpoint seq)
  kQuarantine,        // malformed input rejected (a = offending source id)
  kCrash,             // process marked crashed
  kRecovery,          // crash recovery completed (a = replayed, b = µs)
  kVerdict,           // watch fired (a = holds | definite<<1, b = latency µs)
  kCheckpoint,        // clock snapshot / retention checkpoint adopted
  kContractFailure,   // SYNCON_REQUIRE / SYNCON_ASSERT tripped
  kSpan,              // SYNCON_SPAN closed (a = name literal, b = start µs;
                      // t_us is the end, so the duration is t_us - b)
};

const char* to_string(FlightKind kind);

/// One decoded ring record. `a` / `b` are kind-specific payload words (see
/// FlightKind); event ids travel packed via pack_event/unpack_event.
struct FlightRecord {
  std::uint64_t seq = 0;   // global write sequence, dense, oldest-first
  std::uint64_t t_us = 0;  // obs::now_us() at the write
  FlightKind kind = FlightKind::kDelivery;
  std::uint32_t process = 0;  // owning process / receiver (kNoProcess: none)
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  static constexpr std::uint32_t kNoProcess = 0xffffffffu;
};

constexpr std::uint64_t pack_event(EventId e) {
  return (static_cast<std::uint64_t>(e.process) << 32) | e.index;
}
constexpr EventId unpack_event(std::uint64_t packed) {
  return EventId{static_cast<ProcessId>(packed >> 32),
                 static_cast<EventIndex>(packed & 0xffffffffu)};
}

/// The name literal a kSpan record carries in `a`.
inline const char* span_name(const FlightRecord& record) {
  return reinterpret_cast<const char*>(static_cast<std::uintptr_t>(record.a));
}

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kSpanCapacity = 1 << 16;

  /// Capacity is rounded up to a power of two.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder used by obs::flight().
  static FlightRecorder& global();
  /// Process-wide kSpan ring used by SYNCON_SPAN (kSpanCapacity slots,
  /// built on the first span telemetry records).
  static FlightRecorder& spans();

  std::size_t capacity() const { return mask_ + 1; }

  void record(FlightKind kind, std::uint32_t process, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Consistent snapshot of the retained records, oldest first (at most
  /// capacity(); slots a concurrent writer is mid-way through are skipped).
  std::vector<FlightRecord> dump() const;

  /// Records written since construction / the last clear, including ones
  /// the ring has since overwritten.
  std::uint64_t recorded_total() const {
    return next_.load(std::memory_order_acquire);
  }

  void clear();

 private:
  // Seqlock slot: `stamp` is 0 (never written), odd (write in progress) or
  // 2*seq + 2 (payload of write `seq` committed). Payload words are relaxed
  // atomics so concurrent access is race-free by construction.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> t_us{0};
    std::atomic<std::uint64_t> kind_process{0};  // kind << 32 | process
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  std::unique_ptr<Slot[]> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

namespace detail {
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

/// True iff flight recording is on. Off by default; independent of
/// obs::enabled() so the black box can stay armed with metrics off (and
/// vice versa for zero-overhead benchmarking).
inline bool flight_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

void set_flight_enabled(bool on);

/// The one-line recording call every subsystem uses; a disabled recorder
/// costs one relaxed load and a branch.
inline void flight(FlightKind kind, std::uint32_t process, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
  if (flight_enabled()) FlightRecorder::global().record(kind, process, a, b);
}

// --- automatic dumps ---------------------------------------------------------

/// File the automatic dumps append to. Empty (the default) disables them.
/// Dumps are appended with a reason header so consecutive incidents stack.
void set_flight_dump_path(std::string path);

/// Appends a text dump of the global ring to the configured dump path now
/// (the on-quarantine / on-recovery / on-contract-failure hook; also usable
/// on demand). Returns false when disabled, not recording, or the ring is
/// empty. Never throws — the black box must not turn an incident into a
/// second failure.
bool flight_auto_dump(const char* reason) noexcept;

// --- pretty-printers ---------------------------------------------------------

void write_flight_text(std::ostream& os, const std::vector<FlightRecord>& records);
void write_flight_json(std::ostream& os, const std::vector<FlightRecord>& records);

}  // namespace syncon::obs
