#include "service/tenant_codec.hpp"

#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon::service {

PeekStatus peek_frame(std::span<const std::uint8_t> in, FrameView& out) {
  std::span<const std::uint8_t> payload;
  std::size_t frame_size = 0;
  const PeekStatus status =
      read_frame(in, payload, frame_size, kMaxFramePayload);
  if (status != PeekStatus::kOk) return status;
  return read_header(payload, out) ? PeekStatus::kOk : PeekStatus::kCorrupt;
}

bool read_header(std::span<const std::uint8_t> payload, FrameView& out) {
  if (payload.empty() ||
      payload.front() < static_cast<std::uint8_t>(FrameKind::kHello) ||
      payload.front() > static_cast<std::uint8_t>(FrameKind::kCheckpoint)) {
    return false;
  }
  const auto kind = static_cast<FrameKind>(payload.front());
  payload = payload.subspan(1);
  try {
    out.tenant = decode_varint(payload);
    out.seq = decode_varint(payload);
  } catch (const ContractViolation&) {
    return false;
  }
  out.kind = kind;
  out.body = payload;
  return true;
}

PeekStatus peek_route(std::span<const std::uint8_t> in, std::uint64_t& tenant,
                      std::size_t& frame_size) {
  std::span<const std::uint8_t> payload;
  if (const PeekStatus status =
          scan_frame(in, payload, frame_size, kMaxFramePayload);
      status != PeekStatus::kOk) {
    return status;
  }
  std::span<const std::uint8_t> head = payload.subspan(1);  // past the kind
  try {
    tenant = decode_varint(head);
  } catch (const ContractViolation&) {
    return PeekStatus::kCorrupt;
  }
  return PeekStatus::kOk;
}

TenantFrameEncoder::Stream& TenantFrameEncoder::stream_of(
    std::uint64_t tenant) {
  const auto it = streams_.find(tenant);
  SYNCON_REQUIRE(it != streams_.end(),
                 "encode_op before encode_hello for this tenant");
  return it->second;
}

void TenantFrameEncoder::encode_hello(std::uint64_t tenant,
                                      std::size_t processes,
                                      std::size_t resync_chunk,
                                      std::vector<std::uint8_t>& out) {
  SYNCON_REQUIRE(processes >= 2, "a tenant needs at least two processes");
  SYNCON_REQUIRE(resync_chunk > 0, "resync chunk must be positive");
  const auto [it, inserted] =
      streams_.try_emplace(tenant, processes);
  SYNCON_REQUIRE(inserted, "hello already sent for this tenant");

  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(FrameKind::kHello));
  encode_varint(tenant, payload);
  encode_varint(it->second.next_seq++, payload);  // seq 0
  encode_varint(processes, payload);
  encode_varint(resync_chunk, payload);
  append_frame(payload, out);
}

std::size_t TenantFrameEncoder::encode_op(std::uint64_t tenant,
                                          const TenantOp& op,
                                          std::vector<std::uint8_t>& out) {
  Stream& stream = stream_of(tenant);
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(op.kind));
  encode_varint(tenant, payload);
  encode_varint(stream.next_seq, payload);

  switch (op.kind) {
    case FrameKind::kHello:  // refused before it takes a seq
      SYNCON_REQUIRE(false, "a hello opens a session; it is not an op");
      break;
    case FrameKind::kBegin:
    case FrameKind::kComplete:
    case FrameKind::kForget:
      encode_string(op.label, payload);
      break;
    case FrameKind::kWatch:
      payload.push_back(static_cast<std::uint8_t>(op.relation.relation));
      payload.push_back(static_cast<std::uint8_t>(op.relation.proxy_x));
      payload.push_back(static_cast<std::uint8_t>(op.relation.proxy_y));
      encode_string(op.label, payload);
      encode_string(op.label2, payload);
      break;
    case FrameKind::kEvent:
      encode_event_record(stream.journal, op.message, op.sources, op.time,
                          payload);
      encode_string(op.label, payload);
      break;
    case FrameKind::kReport:
      stream.report.encode(op.message, payload);
      break;
    case FrameKind::kCheckpoint:
      encode_varint(op.message.clock.size(), payload);
      for (const ClockValue value : op.message.clock.values()) {
        encode_varint(value, payload);
      }
      break;
  }
  ++stream.next_seq;
  return append_frame(payload, out);
}

void TenantFrameEncoder::release(std::uint64_t tenant) {
  streams_.erase(tenant);
}

TenantStreamDecoder::TenantStreamDecoder(std::size_t processes,
                                         std::uint64_t hello_seq)
    : journal_(processes), report_(processes), expected_seq_(hello_seq + 1) {}

bool TenantStreamDecoder::decode(const FrameView& frame, TenantOp& op) {
  // The splice guard, checked before any body byte: an out-of-position
  // frame must not be able to touch the chained delta-codec state.
  if (frame.seq != expected_seq_) return false;
  ++expected_seq_;  // in sequence: the stream position is consumed

  // A shard decodes each frame into one reused op: reset in place, a clean
  // event or report frame allocates nothing.
  op.reset(frame.kind);
  std::span<const std::uint8_t> in = frame.body;
  try {
    switch (frame.kind) {
      case FrameKind::kHello:
        return false;  // hellos open sessions; they are not ops
      case FrameKind::kBegin:
      case FrameKind::kComplete:
      case FrameKind::kForget:
        decode_string(in, op.label);
        break;
      case FrameKind::kWatch: {
        SYNCON_REQUIRE(in.size() >= 3, "truncated watch frame");
        const std::uint8_t relation = in[0], px = in[1], py = in[2];
        in = in.subspan(3);
        SYNCON_REQUIRE(
            relation <= static_cast<std::uint8_t>(Relation::R4p) && px <= 1 &&
                py <= 1,
            "watch frame names an unknown relation");
        op.relation = {static_cast<Relation>(relation),
                       static_cast<ProxyKind>(px), static_cast<ProxyKind>(py)};
        decode_string(in, op.label);
        decode_string(in, op.label2);
        break;
      }
      case FrameKind::kEvent:
        decode_event_record(journal_, in, op.message, op.sources, op.time);
        decode_string(in, op.label);
        break;
      case FrameKind::kReport:
        if (!report_.try_decode(in, op.message)) return false;
        break;
      case FrameKind::kCheckpoint: {
        const std::uint64_t size = decode_varint(in);
        SYNCON_REQUIRE(size <= in.size(), "impossible clock size");
        VectorClock clock(static_cast<std::size_t>(size), 0);
        for (std::uint64_t i = 0; i < size; ++i) {
          clock.set(static_cast<std::size_t>(i),
                    decode_varint_as<ClockValue>(in));
        }
        op.message.clock = std::move(clock);
        break;
      }
    }
  } catch (const ContractViolation&) {
    return false;
  }
  return in.empty();  // trailing bytes mean a garbled body
}

bool decode_hello(const FrameView& frame, std::size_t& processes,
                  std::size_t& resync_chunk) {
  if (frame.kind != FrameKind::kHello) return false;
  std::span<const std::uint8_t> in = frame.body;
  try {
    const std::uint64_t p = decode_varint(in);
    const std::uint64_t chunk = decode_varint(in);
    if (!in.empty() || p < 2 || p > kMaxTenantProcesses || chunk == 0) {
      return false;
    }
    processes = static_cast<std::size_t>(p);
    resync_chunk = static_cast<std::size_t>(chunk);
  } catch (const ContractViolation&) {
    return false;
  }
  return true;
}

}  // namespace syncon::service
