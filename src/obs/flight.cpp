#include "obs/flight.hpp"

#include <fstream>
#include <mutex>
#include <ostream>
#include <utility>

#include "obs/span.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace syncon::obs {

namespace detail {
std::atomic<bool> g_flight_enabled{false};
}  // namespace detail

void set_flight_enabled(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kDelivery: return "delivery";
    case FlightKind::kDuplicate: return "duplicate";
    case FlightKind::kGapOpen: return "gap-open";
    case FlightKind::kGapClose: return "gap-close";
    case FlightKind::kResyncRequest: return "resync-request";
    case FlightKind::kResyncServe: return "resync-serve";
    case FlightKind::kCompact: return "compact";
    case FlightKind::kWalSync: return "wal-sync";
    case FlightKind::kWalRotate: return "wal-rotate";
    case FlightKind::kSnapshot: return "snapshot";
    case FlightKind::kQuarantine: return "quarantine";
    case FlightKind::kCrash: return "crash";
    case FlightKind::kRecovery: return "recovery";
    case FlightKind::kVerdict: return "verdict";
    case FlightKind::kCheckpoint: return "checkpoint";
    case FlightKind::kContractFailure: return "contract-failure";
    case FlightKind::kSpan: return "span";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  SYNCON_REQUIRE(capacity >= 1, "flight ring needs at least one slot");
  const std::size_t cap = round_up_pow2(capacity);
  ring_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder& FlightRecorder::spans() {
  static FlightRecorder recorder(kSpanCapacity);
  return recorder;
}

void FlightRecorder::clear() {
  const std::size_t cap = mask_ + 1;
  for (std::size_t i = 0; i < cap; ++i) {
    ring_[i].stamp.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_release);
}

void FlightRecorder::record(FlightKind kind, std::uint32_t process,
                            std::uint64_t a, std::uint64_t b) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[seq & mask_];
  // Seqlock write: mark in-progress (odd), fill payload, commit (even,
  // derived from seq so a reader can match stamp against the sequence it
  // expects). Two writers lapping each other on the same slot resolve to
  // a stamp mismatch on the reader side — the record is skipped, not torn.
  slot.stamp.store(2 * seq + 1, std::memory_order_relaxed);
  slot.t_us.store(now_us(), std::memory_order_relaxed);
  slot.kind_process.store(
      (static_cast<std::uint64_t>(kind) << 32) | process,
      std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.stamp.store(2 * seq + 2, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::dump() const {
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t start = total > cap ? total - cap : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(total - start));
  for (std::uint64_t seq = start; seq < total; ++seq) {
    const Slot& slot = ring_[seq & mask_];
    if (slot.stamp.load(std::memory_order_acquire) != 2 * seq + 2) {
      continue;  // write in progress or already lapped — skip, never tear
    }
    FlightRecord rec;
    rec.seq = seq;
    rec.t_us = slot.t_us.load(std::memory_order_relaxed);
    const std::uint64_t kp = slot.kind_process.load(std::memory_order_relaxed);
    rec.kind = static_cast<FlightKind>(kp >> 32);
    rec.process = static_cast<std::uint32_t>(kp & 0xffffffffu);
    rec.a = slot.a.load(std::memory_order_relaxed);
    rec.b = slot.b.load(std::memory_order_relaxed);
    // Re-check: if a writer lapped us mid-read the payload may mix two
    // records; the stamp will have moved on and we drop the slot.
    if (slot.stamp.load(std::memory_order_acquire) != 2 * seq + 2) continue;
    out.push_back(rec);
  }
  return out;
}

// --- automatic dumps ---------------------------------------------------------

namespace {

std::mutex& dump_mutex() {
  static std::mutex m;
  return m;
}

std::string& dump_path_storage() {
  static std::string path;
  return path;
}

std::string flight_dump_path() {
  const std::lock_guard<std::mutex> lock(dump_mutex());
  return dump_path_storage();
}

}  // namespace

void set_flight_dump_path(std::string path) {
  const std::lock_guard<std::mutex> lock(dump_mutex());
  dump_path_storage() = std::move(path);
}

bool flight_auto_dump(const char* reason) noexcept {
  try {
    if (!flight_enabled()) return false;
    const std::string path = flight_dump_path();
    if (path.empty()) return false;
    const std::vector<FlightRecord> records = FlightRecorder::global().dump();
    if (records.empty()) return false;
    const std::lock_guard<std::mutex> lock(dump_mutex());
    std::ofstream out(path, std::ios::app);
    if (!out) return false;
    out << "=== flight dump (" << (reason == nullptr ? "on-demand" : reason)
        << ") at t=" << now_us() << "µs ===\n";
    write_flight_text(out, records);
    return out.good();
  } catch (...) {
    return false;  // the black box must never add a second failure
  }
}

// --- pretty-printers ---------------------------------------------------------

namespace {

/// Human rendering of the kind-specific payload words.
std::string describe_payload(const FlightRecord& r) {
  switch (r.kind) {
    case FlightKind::kDelivery:
    case FlightKind::kDuplicate:
    case FlightKind::kQuarantine: {
      const EventId e = unpack_event(r.a);
      std::string source = "source p";
      source += std::to_string(e.process);
      source += ':';
      source += std::to_string(e.index);
      return source;
    }
    case FlightKind::kGapOpen:
      return std::to_string(r.a) + " missing";
    case FlightKind::kGapClose:
      return std::to_string(r.a) + " reports, " + std::to_string(r.b) +
             "µs open";
    case FlightKind::kResyncRequest:
      return std::to_string(r.a) + " events, attempt " + std::to_string(r.b);
    case FlightKind::kResyncServe:
      return std::to_string(r.a) + " asked, " + std::to_string(r.b) +
             " answered";
    case FlightKind::kCompact:
      return std::to_string(r.a) + " reclaimed, " + std::to_string(r.b) +
             " live";
    case FlightKind::kWalSync:
      return std::to_string(r.a) + " records, " + std::to_string(r.b) +
             " bytes";
    case FlightKind::kWalRotate:
      return "segment " + std::to_string(r.a);
    case FlightKind::kSnapshot:
      return "checkpoint seq " + std::to_string(r.a);
    case FlightKind::kRecovery:
      return std::to_string(r.a) + " replayed, " + std::to_string(r.b) + "µs";
    case FlightKind::kVerdict:
      return std::string((r.a & 1) != 0 ? "holds" : "fails") +
             ((r.a & 2) != 0 ? " definite" : " pending-gap") + ", " +
             std::to_string(r.b) + "µs";
    case FlightKind::kSpan:
      return span_name(r);
    case FlightKind::kCrash:
    case FlightKind::kCheckpoint:
    case FlightKind::kContractFailure:
      break;
  }
  return {};
}

}  // namespace

void write_flight_text(std::ostream& os,
                       const std::vector<FlightRecord>& records) {
  TextTable table({"seq", "t µs", "kind", "proc", "detail"});
  for (const FlightRecord& r : records) {
    std::string process = "-";
    if (r.process != FlightRecord::kNoProcess) {
      process = "p";
      process += std::to_string(r.process);
    }
    table.new_row()
        .add_cell(r.seq)
        .add_cell(with_thousands(r.t_us))
        .add_cell(std::string(to_string(r.kind)))
        .add_cell(std::move(process))
        .add_cell(describe_payload(r));
  }
  table.print(os);
}

void write_flight_json(std::ostream& os,
                       const std::vector<FlightRecord>& records) {
  os << "{\n  \"schema\": \"syncon-flight-v1\",\n  \"records\": [";
  bool first = true;
  for (const FlightRecord& r : records) {
    os << (first ? "\n" : ",\n");
    os << "    {\"seq\": " << r.seq << ", \"t_us\": " << r.t_us
       << ", \"kind\": \"" << to_string(r.kind) << "\", \"process\": ";
    if (r.process == FlightRecord::kNoProcess) {
      os << "null";
    } else {
      os << r.process;
    }
    os << ", \"a\": " << r.a << ", \"b\": " << r.b << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

}  // namespace syncon::obs
