#include "mbq/shard/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "mbq/common/error.h"

namespace mbq::shard {

namespace {

/// Hard cap on a single frame; a length prefix beyond this is corruption
/// (the largest legitimate frame is a shot-outcome payload, ~8 bytes per
/// shot).
constexpr std::uint32_t kMaxFrameBytes = 1u << 28;  // 256 MiB

constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusError = 1;

}  // namespace

std::string unshardable_reason(const api::Workload& w) {
  if (w.has_custom_builder())
    return "custom-circuit workloads hold an arbitrary CircuitBuilder "
           "closure that cannot cross a process boundary";
  return {};
}

void encode_workload(ByteWriter& out, const api::Workload& w) {
  MBQ_REQUIRE(shardable(w), "cannot serialize workload: "
                                << unshardable_reason(w));
  // The workload IS its spec (the CustomCircuit escape hatch is guarded
  // above), so the spec codec carries every ansatz kind — arbitrary-order
  // costs, weighted MIS, declarative circuits, the noise knob — and a
  // worker rebuilds the workload bit-exactly from it.
  api::encode_spec(out, w.spec());
}

api::Workload decode_workload(ByteReader& in) {
  return api::Workload::from_spec(api::decode_spec(in));
}

void encode_angles(ByteWriter& out, const qaoa::Angles& a) {
  out.f64_vec(a.gamma);
  out.f64_vec(a.beta);
}

qaoa::Angles decode_angles(ByteReader& in) {
  std::vector<real> gamma = in.f64_vec();
  std::vector<real> beta = in.f64_vec();
  return qaoa::Angles(std::move(gamma), std::move(beta));
}

std::vector<std::byte> encode_request(const Request& r) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(r.kind));
  out.str(r.backend);
  out.u64(r.seed);
  encode_workload(out, r.workload);
  out.u32(static_cast<std::uint32_t>(r.points.size()));
  for (const qaoa::Angles& a : r.points) encode_angles(out, a);
  out.u64(r.shots);
  out.u64(r.base_call);
  out.u64(r.stream_base);
  out.u64(r.begin);
  out.u64(r.end);
  return out.take();
}

Request decode_request(std::span<const std::byte> frame) {
  ByteReader in(frame);
  Request r;
  const std::uint8_t kind = in.u8();
  MBQ_REQUIRE(kind == static_cast<std::uint8_t>(TaskKind::kSample) ||
                  kind == static_cast<std::uint8_t>(TaskKind::kExpectation),
              "malformed request frame: task kind " << int{kind});
  r.kind = static_cast<TaskKind>(kind);
  r.backend = in.str();
  r.seed = in.u64();
  r.workload = decode_workload(in);
  const std::uint32_t points = in.u32();
  r.points.reserve(points);
  for (std::uint32_t i = 0; i < points; ++i)
    r.points.push_back(decode_angles(in));
  r.shots = in.u64();
  r.base_call = in.u64();
  r.stream_base = in.u64();
  r.begin = in.u64();
  r.end = in.u64();
  MBQ_REQUIRE(in.done(), "malformed request frame: " << in.remaining()
                                                     << " trailing bytes");
  MBQ_REQUIRE(r.begin <= r.end, "malformed request frame: begin "
                                    << r.begin << " > end " << r.end);
  return r;
}

SliceRequest rebase_slice(const Request& whole, std::uint64_t begin,
                          std::uint64_t end) {
  MBQ_REQUIRE(begin < end, "empty slice [" << begin << ", " << end << ")");
  MBQ_REQUIRE(whole.begin <= begin && end <= whole.end,
              "slice [" << begin << ", " << end << ") outside the request's ["
                        << whole.begin << ", " << whole.end << ")");
  SliceRequest out;
  out.request = whole;
  if (whole.kind == TaskKind::kSample) {
    MBQ_REQUIRE(whole.shots >= 1, "sample request needs shots >= 1");
    const std::uint64_t first_point = begin / whole.shots;
    const std::uint64_t last_point = (end - 1) / whole.shots;
    out.request.points.assign(
        whole.points.begin() + static_cast<std::ptrdiff_t>(first_point),
        whole.points.begin() + static_cast<std::ptrdiff_t>(last_point) + 1);
    out.request.base_call = whole.base_call + first_point;
    out.request.begin = begin - first_point * whole.shots;
    out.request.end = end - first_point * whole.shots;
    out.offset = first_point * whole.shots;
  } else {
    out.request.points.assign(
        whole.points.begin() + static_cast<std::ptrdiff_t>(begin),
        whole.points.begin() + static_cast<std::ptrdiff_t>(end));
    out.request.stream_base = whole.stream_base + begin;
    out.request.begin = 0;
    out.request.end = end - begin;
    out.offset = begin;
  }
  return out;
}

std::vector<std::byte> encode_response(const Response& r) {
  ByteWriter out;
  if (r.ok) {
    out.u8(kStatusOk);
    out.u64_vec(r.outcomes);
    out.f64_vec(r.values);
  } else {
    out.u8(kStatusError);
    out.u64(r.error_index);
    out.u8(r.error_in_eval ? 1 : 0);
    out.str(r.error_message);
  }
  return out.take();
}

Response decode_response(std::span<const std::byte> frame) {
  ByteReader in(frame);
  Response r;
  const std::uint8_t status = in.u8();
  if (status == kStatusOk) {
    r.ok = true;
    r.outcomes = in.u64_vec();
    r.values = in.f64_vec();
  } else {
    MBQ_REQUIRE(status == kStatusError,
                "malformed response frame: status " << int{status});
    r.ok = false;
    r.error_index = in.u64();
    r.error_in_eval = in.u8() != 0;
    r.error_message = in.str();
  }
  MBQ_REQUIRE(in.done(), "malformed response frame: " << in.remaining()
                                                      << " trailing bytes");
  return r;
}

void write_frame(int fd, std::span<const std::byte> payload) {
  MBQ_REQUIRE(payload.size() <= kMaxFrameBytes,
              "frame of " << payload.size() << " bytes exceeds the "
                          << kMaxFrameBytes << "-byte protocol cap");
  std::byte header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<std::byte>((len >> (8 * i)) & 0xFF);

  const auto send_all = [fd](const std::byte* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE here instead of
      // delivering SIGPIPE to the whole process.
      const ssize_t n =
          ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        MBQ_REQUIRE(false, "shard channel write failed: "
                               << std::strerror(errno));
      }
      sent += static_cast<std::size_t>(n);
    }
  };
  send_all(header, sizeof(header));
  send_all(payload.data(), payload.size());
}

std::optional<std::vector<std::byte>> read_frame(int fd, int timeout_ms) {
  // One deadline covers the whole frame: a peer that keeps trickling
  // bytes forever is as wedged as one that sends nothing.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const auto recv_all = [fd, timeout_ms, deadline](std::byte* data,
                                                   std::size_t size,
                                                   bool eof_ok) -> bool {
    std::size_t got = 0;
    while (got < size) {
      if (timeout_ms > 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        struct pollfd pfd{fd, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                left.count(), 0)));
        if (ready < 0) {
          if (errno == EINTR) continue;
          MBQ_REQUIRE(false, "shard channel poll failed: "
                                 << std::strerror(errno));
        }
        MBQ_REQUIRE(ready > 0, "shard channel read timed out after "
                                   << timeout_ms
                                   << " ms (peer alive but not responding)");
      }
      const ssize_t n = ::read(fd, data + got, size - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        MBQ_REQUIRE(false, "shard channel read failed: "
                               << std::strerror(errno));
      }
      if (n == 0) {
        MBQ_REQUIRE(eof_ok && got == 0,
                    "shard channel closed mid-frame (worker process died?)");
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  };

  std::byte header[4];
  if (!recv_all(header, sizeof(header), /*eof_ok=*/true)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  MBQ_REQUIRE(len <= kMaxFrameBytes, "frame length prefix "
                                         << len << " exceeds the "
                                         << kMaxFrameBytes << "-byte cap");
  std::vector<std::byte> payload(len);
  if (len > 0) recv_all(payload.data(), len, /*eof_ok=*/false);
  return payload;
}

}  // namespace mbq::shard
