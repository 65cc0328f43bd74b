#include "io/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace emts::io::wire {
namespace {

core::Trace ramp_trace(std::size_t n, double offset = 0.0) {
  core::Trace t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = offset + 0.25 * static_cast<double>(i);
  return t;
}

std::string encode(const std::string& id, double rate, const core::Trace& trace) {
  std::string out;
  encode_trace_frame(id, rate, trace.data(), trace.size(), out);
  return out;
}

/// Recomputes and patches the payload checksum after a corruption, so the
/// test exercises the *structural* validation, not the checksum.
void fix_checksum(std::string& frame) {
  std::uint32_t payload_size = 0;
  std::memcpy(&payload_size, frame.data() + 8, sizeof payload_size);
  const std::uint64_t sum = util::fnv1a64(frame.data() + 12, payload_size);
  std::memcpy(frame.data() + 12 + payload_size, &sum, sizeof sum);
}

TEST(WireFrame, RoundTripsBitIdentically) {
  const core::Trace trace = ramp_trace(257, 1.5);
  const std::string bytes = encode("chip-07", 384e6, trace);
  EXPECT_EQ(bytes.size(), kFrameOverhead + 4 + 7 + 8 + 4 + 257 * 8);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.device_id, "chip-07");
  EXPECT_EQ(frame.sample_rate, 384e6);
  ASSERT_EQ(frame.trace.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) EXPECT_EQ(frame.trace[i], trace[i]);
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(WireFrame, StructRoundTrip) {
  TraceFrame in;
  in.device_id = "sensor-array-3";
  in.sample_rate = 1e9;
  in.trace = ramp_trace(64);
  std::string bytes;
  encode_trace_frame(in, bytes);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.device_id, in.device_id);
  EXPECT_EQ(out.sample_rate, in.sample_rate);
  EXPECT_EQ(out.trace, in.trace);
}

TEST(WireFrame, DecoderReassemblesByteAtATime) {
  // A socket can deliver any fragmentation; the decoder must be agnostic.
  const std::string bytes =
      encode("a", 48e6, ramp_trace(31)) + encode("b", 48e6, ramp_trace(33, 5.0));
  FrameDecoder decoder;
  std::vector<TraceFrame> frames;
  TraceFrame frame;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].device_id, "a");
  EXPECT_EQ(frames[0].trace.size(), 31u);
  EXPECT_EQ(frames[1].device_id, "b");
  EXPECT_EQ(frames[1].trace[0], 5.0);
}

TEST(WireFrame, ManyFramesOneFeedAndBufferStaysBounded) {
  std::string bytes;
  for (int i = 0; i < 200; ++i) {
    encode_trace_frame("dev", 1e6, ramp_trace(16).data(), 16, bytes);
  }
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  int decoded = 0;
  while (decoder.next(frame)) ++decoded;
  EXPECT_EQ(decoded, 200);

  // Feeding more after full consumption compacts; the buffer must not
  // accumulate the whole session.
  const std::string one = encode("dev", 1e6, ramp_trace(16));
  decoder.feed(one.data(), one.size());
  EXPECT_LE(decoder.buffered(), one.size());
  EXPECT_TRUE(decoder.next(frame));
}

TEST(WireFrame, PartialFrameIsNotAFrame) {
  const std::string bytes = encode("chip", 1e6, ramp_trace(64));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);  // everything but the last byte
  TraceFrame frame;
  EXPECT_FALSE(decoder.next(frame));
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next(frame));
}

TEST(WireFrame, EncodeRejectsBadInput) {
  std::string out;
  const core::Trace trace = ramp_trace(8);
  EXPECT_THROW(encode_trace_frame("", 1e6, trace.data(), trace.size(), out),
               emts::precondition_error);
  EXPECT_THROW(encode_trace_frame("dev", 1e6, trace.data(), 0, out),
               emts::precondition_error);
  EXPECT_THROW(encode_trace_frame("dev", -1.0, trace.data(), trace.size(), out),
               emts::precondition_error);
  EXPECT_THROW(encode_trace_frame("dev", 0.0, trace.data(), trace.size(), out),
               emts::precondition_error);
  EXPECT_THROW(encode_trace_frame(std::string(5000, 'x'), 1e6, trace.data(), trace.size(), out),
               emts::precondition_error);
}

TEST(WireFrame, BadMagicThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, UnsupportedVersionThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  bytes[4] = 2;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, UnknownTypeThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  bytes[5] = 9;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, NonzeroReservedBytesThrow) {
  // A decoded frame must re-encode to its own bytes, so the decoder cannot
  // accept a header the encoder never writes.
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  bytes[7] = 1;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, AbsurdPayloadSizeRejectedBeforeBuffering) {
  // A header claiming a payload beyond the cap must throw immediately from
  // the 12 header bytes alone — no waiting for (or allocating) gigabytes.
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  const std::uint32_t absurd = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 8, &absurd, sizeof absurd);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), 12);
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, ChecksumMismatchThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  bytes[20] ^= 0x01;  // flip one payload bit, leave the checksum stale
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, SampleCountDisagreeingWithPayloadThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  // Overwrite the sample count (after u32 id_len + 3-byte id + f64 rate).
  const std::size_t count_offset = 12 + 4 + 3 + 8;
  const std::uint32_t wrong = 9;
  std::memcpy(bytes.data() + count_offset, &wrong, sizeof wrong);
  fix_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, NonPositiveSampleRateThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  const double bad = -5.0;
  std::memcpy(bytes.data() + 12 + 4 + 3, &bad, sizeof bad);
  fix_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireHello, RoundTripsThroughGenericDecode) {
  std::string bytes;
  encode_hello_frame("sesame-123", bytes);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.kind, FrameKind::kHello);
  EXPECT_EQ(frame.auth_token, "sesame-123");
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(WireHello, InterleavesWithTraceFramesByteAtATime) {
  // The auth handshake rides the same stream as the traffic it unlocks, and
  // the transport may fragment it anywhere.
  std::string bytes;
  encode_hello_frame("token", bytes);
  bytes += encode("dev", 1e6, ramp_trace(16));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[0].auth_token, "token");
  EXPECT_EQ(frames[1].kind, FrameKind::kTrace);
  EXPECT_EQ(frames[1].trace.device_id, "dev");
  EXPECT_EQ(frames[1].trace.trace.size(), 16u);
}

TEST(WireHello, TraceOnlyDecodeRejectsHello) {
  // Benches and replay paths speak the trace-only dialect; a HELLO there is
  // a protocol violation, not a frame to skip silently.
  std::string bytes;
  encode_hello_frame("token", bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireHello, EncodeRejectsBadTokens) {
  std::string out;
  EXPECT_THROW(encode_hello_frame("", out), emts::precondition_error);
  EXPECT_THROW(encode_hello_frame(std::string(kMaxAuthTokenBytes + 1, 'x'), out),
               emts::precondition_error);
}

TEST(WireHello, TokenLengthDisagreeingWithPayloadThrows) {
  std::string bytes;
  encode_hello_frame("abcdef", bytes);
  const std::uint32_t wrong = 3;  // plausible, but short of the payload size
  std::memcpy(bytes.data() + 12, &wrong, sizeof wrong);
  fix_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

TEST(WireFrame, DeviceIdLengthBeyondPayloadThrows) {
  std::string bytes = encode("dev", 1e6, ramp_trace(8));
  const std::uint32_t wrong = 4096;  // within the id cap, beyond this payload
  std::memcpy(bytes.data() + 12, &wrong, sizeof wrong);
  fix_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  TraceFrame frame;
  EXPECT_THROW(decoder.next(frame), emts::precondition_error);
}

}  // namespace
}  // namespace emts::io::wire
