// The binary wire format: randomized tensor round-trips (including NaN
// payloads, infinities and denormals, compared bit-for-bit), envelope framing,
// and the strict error paths — truncation at every prefix
// length, bad magic, bad version, corrupt shapes and trailing bytes. Frame
// reads over a socketpair pin that a header's declared body length never
// buys more memory than the bytes that actually arrive.
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "rpc/socket.h"
#include "rpc/wire.h"
#include "util/rng.h"

namespace d3::rpc {
namespace {

// Bitwise tensor equality: float== would lie about NaNs and signed zeros.
void expect_bits_equal(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i])) << i;
}

TEST(RpcWire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(-0.0f);
  w.str("hello wire");
  w.blob(std::vector<std::uint8_t>{1, 2, 3});

  WireReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(r.f32()), std::bit_cast<std::uint32_t>(-0.0f));
  EXPECT_EQ(r.str(), "hello wire");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  r.expect_end("test");
}

TEST(RpcWire, EncodingIsFixedEndianness) {
  // The format is defined little-endian regardless of host: pin exact bytes.
  WireWriter w;
  w.u32(0x11223344);
  ASSERT_EQ(w.buffer().size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x44);
  EXPECT_EQ(w.buffer()[1], 0x33);
  EXPECT_EQ(w.buffer()[2], 0x22);
  EXPECT_EQ(w.buffer()[3], 0x11);
}

TEST(RpcWire, TensorRoundTripRandomized) {
  util::Rng rng(1234);
  for (int iter = 0; iter < 50; ++iter) {
    const dnn::Shape shape{1 + static_cast<int>(rng.uniform(0, 8)),
                           1 + static_cast<int>(rng.uniform(0, 12)),
                           1 + static_cast<int>(rng.uniform(0, 12))};
    dnn::Tensor t(shape);
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<float>(rng.normal(0.0, 100.0));
    expect_bits_equal(decode_tensor(encode_tensor(t)), t);
  }
}

TEST(RpcWire, TensorRoundTripPreservesSpecialValues) {
  dnn::Tensor t(dnn::Shape{2, 2, 2});
  t[0] = std::numeric_limits<float>::quiet_NaN();
  // A NaN with a distinctive payload: survives only if bits are preserved.
  t[1] = std::bit_cast<float>(0x7FC12345u);
  t[2] = std::numeric_limits<float>::infinity();
  t[3] = -std::numeric_limits<float>::infinity();
  t[4] = std::numeric_limits<float>::denorm_min();
  t[5] = -std::numeric_limits<float>::denorm_min();
  t[6] = -0.0f;
  t[7] = std::numeric_limits<float>::max();
  expect_bits_equal(decode_tensor(encode_tensor(t)), t);
}

TEST(RpcWire, TensorTruncationAlwaysThrows) {
  dnn::Tensor t(dnn::Shape{2, 3, 4});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  const std::vector<std::uint8_t> bytes = encode_tensor(t);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(decode_tensor(std::span(bytes).first(len)), WireError) << len;
}

TEST(RpcWire, TensorRejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_tensor(dnn::Tensor(dnn::Shape{1, 1, 1}));
  bytes.push_back(0);
  EXPECT_THROW(decode_tensor(std::span<const std::uint8_t>(bytes)), WireError);
}

TEST(RpcWire, TensorRejectsBadMagicVersionAndShape) {
  const dnn::Tensor t(dnn::Shape{1, 2, 2});
  {
    std::vector<std::uint8_t> bytes = encode_tensor(t);
    bytes[0] ^= 0xFF;  // magic
    EXPECT_THROW(decode_tensor(std::span<const std::uint8_t>(bytes)), WireError);
  }
  {
    std::vector<std::uint8_t> bytes = encode_tensor(t);
    bytes[4] = 0x7F;  // version
    EXPECT_THROW(decode_tensor(std::span<const std::uint8_t>(bytes)), WireError);
  }
  {
    // Negative channel count.
    WireWriter w;
    w.u32(kTensorMagic);
    w.u16(kWireVersion);
    w.i32(-1);
    w.i32(2);
    w.i32(2);
    EXPECT_THROW(decode_tensor(std::span<const std::uint8_t>(w.buffer())), WireError);
  }
  {
    // Shape whose element count overflows the sanity cap: must throw, not
    // attempt a giant allocation.
    WireWriter w;
    w.u32(kTensorMagic);
    w.u16(kWireVersion);
    w.i32(1 << 19);
    w.i32(1 << 19);
    w.i32(1 << 19);
    EXPECT_THROW(decode_tensor(std::span<const std::uint8_t>(w.buffer())), WireError);
  }
}

TEST(RpcWire, EnvelopeRoundTrip) {
  dnn::Tensor t(dnn::Shape{3, 4, 5});
  util::Rng rng(7);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

  Envelope env;
  env.meta = {42, "edge0", "cloud0", "conv5", core::Tier::kEdge, core::Tier::kCloud,
              t.shape().bytes()};
  env.payload = encode_tensor(t);

  const Envelope back = decode_envelope(encode_envelope(env));
  EXPECT_EQ(back.meta.seq, 42u);
  EXPECT_EQ(back.meta.from_node, "edge0");
  EXPECT_EQ(back.meta.to_node, "cloud0");
  EXPECT_EQ(back.meta.payload, "conv5");
  EXPECT_EQ(back.meta.from_tier, core::Tier::kEdge);
  EXPECT_EQ(back.meta.to_tier, core::Tier::kCloud);
  EXPECT_EQ(back.meta.bytes, t.shape().bytes());
  expect_bits_equal(decode_tensor(std::span<const std::uint8_t>(back.payload)), t);
}

TEST(RpcWire, EnvelopeTruncationAlwaysThrows) {
  Envelope env;
  env.meta = {7, "device0", "edge0", "raw input", core::Tier::kDevice, core::Tier::kEdge, 64};
  env.payload = encode_tensor(dnn::Tensor(dnn::Shape{1, 2, 2}));
  const std::vector<std::uint8_t> bytes = encode_envelope(env);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(decode_envelope(std::span(bytes).first(len)), WireError) << len;
}

TEST(RpcWire, EnvelopeRejectsBadMagicTierAndNegativeBytes) {
  Envelope env;
  env.meta = {0, "a", "b", "x", core::Tier::kDevice, core::Tier::kEdge, 16};
  {
    std::vector<std::uint8_t> bytes = encode_envelope(env);
    bytes[1] ^= 0x40;
    EXPECT_THROW(decode_envelope(std::span<const std::uint8_t>(bytes)), WireError);
  }
  {
    // Tier byte out of range: from_tier sits right after seq + three
    // 1-char strings.
    std::vector<std::uint8_t> bytes = encode_envelope(env);
    const std::size_t tier_at = 4 + 2 + 8 + (4 + 1) * 3;
    bytes[tier_at] = 9;
    EXPECT_THROW(decode_envelope(std::span<const std::uint8_t>(bytes)), WireError);
  }
  {
    Envelope negative = env;
    negative.meta.bytes = -5;
    const std::vector<std::uint8_t> bytes = encode_envelope(negative);
    EXPECT_THROW(decode_envelope(std::span<const std::uint8_t>(bytes)), WireError);
  }
}

// Empty float arrays carry a null data() pointer on both sides of the codec;
// the raw copy must not touch it (memcpy with a null pointer is undefined even
// for zero bytes — the UBSan CI job turns a regression into a failure).
TEST(RpcWire, EmptyFloatArraysRoundTrip) {
  WireWriter w;
  w.f32_array(std::vector<float>{});
  w.f32_raw(nullptr, 0);
  w.f32_array(std::vector<float>{1.5f});
  EXPECT_EQ(w.buffer().size(), 8u + 8u + 4u);  // count 0, count 1, one float

  WireReader r(w.buffer());
  EXPECT_TRUE(r.f32_array().empty());
  r.f32_raw(nullptr, 0);
  EXPECT_EQ(r.f32_array(), std::vector<float>{1.5f});
  r.expect_end("empty arrays");
}

// A frame whose header claims `claimed` body bytes but carries `body` bytes.
std::vector<std::uint8_t> frame_claiming(std::uint64_t claimed, std::size_t body) {
  std::vector<std::uint8_t> frame;
  encode_frame(frame, MsgKind::kPut, std::vector<std::uint8_t>(body, 0xAB), 7);
  // The body length is the header's last field (u64, little-endian).
  const std::size_t len_at = frame.size() - body - 8;
  for (int i = 0; i < 8; ++i) frame[len_at + i] = static_cast<std::uint8_t>(claimed >> (8 * i));
  return frame;
}

TEST(RpcWire, LyingFrameHeaderCostsOnlyTheBytesReceived) {
  // A header claiming 1 GiB, 16 body bytes, then a hang-up: the read must
  // fail on the truncation without first allocating the claimed length. A
  // forked child does the read, so its peak RSS measures that read alone.
  const std::vector<std::uint8_t> frame = frame_claiming(std::uint64_t{1} << 30, 16);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_bytes(fds[1], frame);
  ::close(fds[1]);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    int code = 1;  // no exception
    try {
      read_frame(fds[0]);
    } catch (const SocketError&) {
      code = 0;
    } catch (...) {
      code = 2;
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    if (code == 0 && after.ru_maxrss - before.ru_maxrss >= 64 * 1024) code = 3;  // KiB
    ::_exit(code);
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: read returned, 2: not a SocketError, 3: peak RSS grew by 64 MiB or more";
}

// Runs `decode` in a forked child, so the child's peak RSS measures that
// decode alone. Exit code: 0 = threw WireError with peak RSS grown by under
// 64 MiB, 1 = returned, 2 = threw something else, 3 = RSS grew 64 MiB or more.
int decode_in_child(void (*decode)()) {
  const pid_t child = ::fork();
  if (child < 0) return -1;
  if (child == 0) {
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    int code = 1;  // no exception
    try {
      decode();
    } catch (const WireError&) {
      code = 0;
    } catch (...) {
      code = 2;
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    if (code == 0 && after.ru_maxrss - before.ru_maxrss >= 64 * 1024) code = 3;  // KiB
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(RpcWire, LyingTensorAndArrayHeadersCostOnlyTheBytesReceived) {
  // A 22-byte tensor whose header declares 256x1024x1024 floats (1 GiB) but
  // carries one: the decoder must fail on the truncation before allocating
  // the declared shape.
  EXPECT_EQ(decode_in_child([] {
              std::vector<std::uint8_t> bytes = encode_tensor(dnn::Tensor(dnn::Shape{1, 1, 1}));
              WireWriter dims;
              dims.i32(256);
              dims.i32(1024);
              dims.i32(1024);
              const std::vector<std::uint8_t> lie = dims.take();
              std::copy(lie.begin(), lie.end(), bytes.begin() + 6);  // after magic + version
              ASSERT_EQ(bytes.size(), 22u);
              decode_tensor(bytes);
            }),
            0)
      << "1: decode returned, 2: not a WireError, 3: peak RSS grew by 64 MiB or more";
  // A 12-byte float array whose count declares 2^29 floats (2 GiB) but
  // carries one.
  EXPECT_EQ(decode_in_child([] {
              WireWriter w;
              w.u64(std::uint64_t{1} << 29);
              w.f32(1.0f);
              const std::vector<std::uint8_t> bytes = w.take();
              ASSERT_EQ(bytes.size(), 12u);
              WireReader(bytes).f32_array();
            }),
            0)
      << "1: decode returned, 2: not a WireError, 3: peak RSS grew by 64 MiB or more";
}

TEST(RpcWire, LargeFrameBodyArrivesIntact) {
  // Honest frames past the first growth step (and not a power of two) still
  // arrive byte for byte.
  std::vector<std::uint8_t> body((std::size_t{3} << 20) + 5);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 131);
  std::vector<std::uint8_t> frame;
  encode_frame(frame, MsgKind::kConfig, body, 42);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] { write_bytes(fds[1], frame); });
  const Frame got = read_frame(fds[0]);
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(got.kind, MsgKind::kConfig);
  EXPECT_EQ(got.corr, 42u);
  EXPECT_EQ(got.body, body);
}

}  // namespace
}  // namespace d3::rpc
