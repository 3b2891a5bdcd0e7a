// Tenant-tagged binary framing for the monitoring daemon (DESIGN.md §3.15).
//
// Every frame is one envelope on a byte stream:
//
//   envelope := varint(payload_len) payload crc32(payload):u32le
//   payload  := kind:u8 varint(tenant) varint(seq) body
//
// — the WAL's length-prefix + CRC discipline lifted onto the wire, so a
// torn or bit-flipped frame is detected before any session state is
// touched. `seq` is a single per-tenant counter across every frame of that
// tenant (the hello is seq 0): a frame spliced out of another position —
// replayed, reordered, or cut from a different tenant's stream — fails the
// session's sequence guard *before* its body is decoded, so it can corrupt
// neither this tenant's delta-codec state nor any other tenant's.
//
// Bodies reuse the link codec: the journal (kEvent) and report (kReport)
// streams are each one FIFO LinkEncoder/LinkDecoder pair per tenant,
// shipping clocks as chained deltas with periodic absolute escapes. A kEvent
// body is the event record DurableSystem's WAL writes too
// (encode_event_record, online/wire_codec.hpp) followed by its action
// label; a kReport body is the link frame alone (the session routes a
// report by its event's membership). Checkpoint clocks are absolute (they
// are rare and must stand alone).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "online/wire_codec.hpp"
#include "service/session.hpp"
#include "store/wal.hpp"

namespace syncon::service {

/// Parsed envelope + payload header; `body` aliases the input buffer.
struct FrameView {
  FrameKind kind = FrameKind::kHello;
  std::uint64_t tenant = 0;
  std::uint64_t seq = 0;
  std::span<const std::uint8_t> body;
};

/// The wire's cap on a frame's payload: a larger length is corrupt, so a
/// garbled length prefix cannot make a streaming reader buffer gigabytes
/// waiting for "more". The journal, read from storage, needs no cap.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// A hello declaring more processes is quarantined: a session holds |P|
/// clocks and |P| gap trackers of |P| peers each (~5 MiB at 256, growing as
/// |P|²). Wide enough for every tenant the tools, benches and tests build.
inline constexpr std::size_t kMaxTenantProcesses = 256;

/// read_frame (store/wal.hpp) of `in`'s head under the wire's cap, then
/// read_header: a garbled header is kCorrupt too. On kOk fills `out`;
/// otherwise `out` is unspecified. Never throws, never consumes.
PeekStatus peek_frame(std::span<const std::uint8_t> in, FrameView& out);

/// Parses a CRC-clean payload's header — kind, tenant, seq — into `out`,
/// whose `body` then aliases the rest. Returns false on an unknown kind or
/// a garbled varint. Never throws.
bool read_header(std::span<const std::uint8_t> payload, FrameView& out);

/// The routing read of `in`'s head: scan_frame plus the payload's tenant
/// varint, with no CRC check and no body parse. kOk means only that the
/// envelope is whole and the tenant parsable — the CRC may still fail, and
/// a flipped tenant byte reads as another tenant. On kOk fills `tenant` and
/// `frame_size`. Never throws, never consumes.
PeekStatus peek_route(std::span<const std::uint8_t> in, std::uint64_t& tenant,
                      std::size_t& frame_size);

/// Sender half: frames TenantOps onto per-tenant streams. encode_hello
/// must open each tenant before its first op (it fixes the process count
/// the link codecs are sized to).
class TenantFrameEncoder {
 public:
  /// Appends tenant's hello envelope (always seq 0 — call once).
  void encode_hello(std::uint64_t tenant, std::size_t processes,
                    std::size_t resync_chunk, std::vector<std::uint8_t>& out);

  /// Appends one envelope for `op` on tenant's stream, framed under the
  /// op's kind; returns its size. A kHello op is a contract violation.
  std::size_t encode_op(std::uint64_t tenant, const TenantOp& op,
                        std::vector<std::uint8_t>& out);

  /// Drops tenant's stream state (the tenant finished; a windowed load
  /// generator over many tenants must not accumulate dead codecs).
  void release(std::uint64_t tenant);

 private:
  struct Stream {
    // The link codecs' default cadence: an absolute clock every 16th frame.
    explicit Stream(std::size_t processes)
        : journal(processes), report(processes) {}
    LinkEncoder journal;
    LinkEncoder report;
    std::uint64_t next_seq = 0;
  };

  Stream& stream_of(std::uint64_t tenant);

  std::unordered_map<std::uint64_t, Stream> streams_;
};

/// Receiver half, one per tenant session: the two FIFO link decoders plus
/// the sequence guard. Lives next to the TenantSessionCore it feeds.
class TenantStreamDecoder {
 public:
  /// `hello_seq` is the seq of the hello frame that created the session
  /// (the guard expects hello_seq + 1 next).
  TenantStreamDecoder(std::size_t processes, std::uint64_t hello_seq);

  /// Decodes a CRC-clean frame's body into `op`, whose kind is the frame's.
  /// Returns false — leaving the link-codec state untouched — when the
  /// frame is out of sequence (spliced / replayed / a gap where a corrupt
  /// frame was dropped), is a hello, or its body fails to parse; the
  /// caller quarantines it. A frame that passes
  /// the sequence guard consumes its stream position either way.
  bool decode(const FrameView& frame, TenantOp& op);

  /// The seq the guard expects next: every lower seq was consumed.
  std::uint64_t next_seq() const { return expected_seq_; }

 private:
  LinkDecoder journal_;
  LinkDecoder report_;
  std::uint64_t expected_seq_;
};

/// Parses a hello frame's body. Returns false on malformed contents,
/// including a process count outside [2, kMaxTenantProcesses].
bool decode_hello(const FrameView& frame, std::size_t& processes,
                  std::size_t& resync_chunk);

}  // namespace syncon::service
