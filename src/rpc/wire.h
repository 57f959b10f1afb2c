// Fixed-endianness binary wire format for inter-node communication.
//
// Everything that crosses a process boundary is encoded with these primitives:
// integers are little-endian fixed width, floats are their IEEE-754 bit
// patterns (so NaN payloads, infinities and denormals survive the wire
// bit-exactly — the lossless property the engine asserts end-to-end), strings
// and blobs are length-prefixed. Every decoder is strict: truncated input,
// bad magic numbers, absurd lengths and trailing bytes all raise WireError
// instead of yielding partially-populated objects.
//
// Encoded objects:
//   * tensor    — shape + raw float bits (encode_tensor / decode_tensor)
//   * Envelope  — one framed inter-node message: the engine's MessageRecord
//                 metadata plus the payload bytes (usually an encoded tensor)
//   * weight shard — the layers of a WeightStore one node runs, shipped to it
//                 inside its deployment bundle (core/bundle.h)
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"
#include "exec/weights.h"
#include "runtime/message.h"

namespace d3::rpc {

// Any malformed, truncated or oversized wire payload.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error("rpc: " + what) {}
};

inline constexpr std::uint32_t kTensorMagic = 0xD3A00001;
inline constexpr std::uint32_t kEnvelopeMagic = 0xD3A00002;
inline constexpr std::uint32_t kPlanMagic = 0xD3A00004;  // used by core::plan_io
inline constexpr std::uint32_t kBundleMagic = 0xD3A00006;  // used by core::bundle
inline constexpr std::uint32_t kWeightShardMagic = 0xD3A00007;
inline constexpr std::uint16_t kWireVersion = 1;

// FNV-1a over a byte run: the content-hash primitive shared by the request
// journal's plan stamp, the deployment-bundle checksum, and the deployment's
// weights identity (weights_hash). Not cryptographic — it detects version
// skew and corruption, not tampering.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Decoder sanity caps: a corrupted length field fails loudly instead of
// driving a multi-gigabyte allocation.
inline constexpr std::size_t kMaxStringBytes = std::size_t{1} << 16;
inline constexpr std::int64_t kMaxTensorDim = std::int64_t{1} << 20;
inline constexpr std::int64_t kMaxTensorElements = std::int64_t{1} << 28;  // 1 GiB of floats
inline constexpr std::uint64_t kMaxBlobBytes = std::uint64_t{1} << 31;

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  // Length-prefixed (u32) string; throws WireError above kMaxStringBytes.
  void str(std::string_view s);
  // Length-prefixed (u64) byte blob.
  void blob(std::span<const std::uint8_t> bytes);
  // Count-prefixed (u64) float array, element-wise fixed-endian.
  void f32_array(std::span<const float> values);
  // Raw float bits without a length prefix (count known from context).
  void f32_raw(const float* values, std::size_t count);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  std::string str();
  std::vector<std::uint8_t> blob();
  std::vector<float> f32_array();
  void f32_raw(float* out, std::size_t count);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  // Throws WireError("<what>: truncated") unless `n` more bytes remain,
  // consuming nothing. Decoders call it before allocating for a declared
  // length, so a lying header costs only the bytes actually received.
  void require(std::size_t n, const char* what) const;
  // The rest of the buffer as a span (consumes it).
  std::span<const std::uint8_t> rest();
  // Throws WireError if any bytes remain: decoders never accept trailers.
  void expect_end(const char* what) const;

 private:
  // Advances past `n` bytes after require(). Every read funnels through here —
  // there is no way to read past the end of the buffer.
  const std::uint8_t* need(std::size_t n, const char* what);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- Tensor ------------------------------------------------------------------

void encode_tensor(WireWriter& w, const dnn::Tensor& tensor);
dnn::Tensor decode_tensor(WireReader& r);
std::vector<std::uint8_t> encode_tensor(const dnn::Tensor& tensor);
// Strict standalone decode: the buffer must contain exactly one tensor.
dnn::Tensor decode_tensor(std::span<const std::uint8_t> bytes);

// --- Envelope ----------------------------------------------------------------

// One framed inter-node message: the engine's transcript metadata plus the
// payload bytes (an encoded tensor for data messages; empty for control).
struct Envelope {
  runtime::MessageRecord meta;
  std::vector<std::uint8_t> payload;
};

void encode_envelope(WireWriter& w, const Envelope& envelope);
Envelope decode_envelope(WireReader& r);
std::vector<std::uint8_t> encode_envelope(const Envelope& envelope);
Envelope decode_envelope(std::span<const std::uint8_t> bytes);

// --- Weight shards -----------------------------------------------------------

// A per-node slice of the store: only the layers `keep` marks carry their
// parameters; the rest are encoded as absent (one flag byte, no arrays). A
// parameterless layer that `keep` marks is still "present" — presence follows
// the plan, not the parameter count, so a shard/plan disagreement is always
// detectable. This is what a deployment bundle embeds: O(tier) bytes, never
// the whole model.
std::vector<std::uint8_t> encode_weight_shard(const exec::WeightStore& weights,
                                              const dnn::Network& net,
                                              const std::vector<bool>& keep);

// The deployment's weights identity: FNV-1a over the shard encoding that keeps
// every layer. Every node's bundle carries the same value whichever shard it
// holds, so a worker checks a weights-elided kConfig against it in O(1).
std::uint64_t weights_hash(const exec::WeightStore& weights, const dnn::Network& net);

struct WeightShard {
  // Full-sized store; layers absent from the shard hold empty parameter
  // vectors (running one would fail loudly in the kernels).
  exec::WeightStore weights;
  // Per-layer presence flags, as encoded — checked against the plan's
  // node-layer set at boot.
  std::vector<bool> present;
};

// Strict decode: present layers are validated against `net`'s per-layer
// parameter sizes, so a worker never runs kernels over short weight buffers;
// truncation, bad magic and trailing bytes raise WireError.
WeightShard decode_weight_shard(std::span<const std::uint8_t> bytes,
                                const dnn::Network& net);

}  // namespace d3::rpc
