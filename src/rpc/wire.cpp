#include "rpc/wire.h"

#include <bit>
#include <cstring>

namespace d3::rpc {

namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

void check_version(std::uint16_t version, const char* what) {
  if (version != kWireVersion)
    throw WireError(std::string(what) + ": unsupported wire version " + std::to_string(version));
}

}  // namespace

// --- WireWriter --------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void WireWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void WireWriter::str(std::string_view s) {
  if (s.size() > kMaxStringBytes)
    throw WireError("string of " + std::to_string(s.size()) + " bytes exceeds wire limit");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::blob(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > kMaxBlobBytes)
    throw WireError("blob of " + std::to_string(bytes.size()) + " bytes exceeds wire limit");
  u64(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void WireWriter::f32_array(std::span<const float> values) {
  u64(values.size());
  f32_raw(values.data(), values.size());
}

void WireWriter::f32_raw(const float* values, std::size_t count) {
  // An empty array (a weightless layer's) may hand over a null pointer, and
  // copying from null is undefined even for zero bytes.
  if (count == 0) return;
  if constexpr (kLittleEndianHost) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(values);
    buf_.insert(buf_.end(), raw, raw + count * sizeof(float));
  } else {
    for (std::size_t i = 0; i < count; ++i) f32(values[i]);
  }
}

// --- WireReader --------------------------------------------------------------

void WireReader::require(std::size_t n, const char* what) const {
  if (n > remaining())
    throw WireError(std::string(what) + ": truncated (" + std::to_string(n) + " bytes needed, " +
                    std::to_string(remaining()) + " remain)");
}

const std::uint8_t* WireReader::need(std::size_t n, const char* what) {
  require(n, what);
  const std::uint8_t* at = bytes_.data() + pos_;
  pos_ += n;
  return at;
}

std::uint8_t WireReader::u8() { return *need(1, "u8"); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = need(2, "u16");
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

float WireReader::f32() { return std::bit_cast<float>(u32()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (len > kMaxStringBytes)
    throw WireError("string length " + std::to_string(len) + " exceeds wire limit");
  const std::uint8_t* p = need(len, "string");
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<std::uint8_t> WireReader::blob() {
  const std::uint64_t len = u64();
  if (len > kMaxBlobBytes)
    throw WireError("blob length " + std::to_string(len) + " exceeds wire limit");
  const std::uint8_t* p = need(static_cast<std::size_t>(len), "blob");
  return std::vector<std::uint8_t>(p, p + len);
}

std::vector<float> WireReader::f32_array() {
  const std::uint64_t count = u64();
  if (count > kMaxBlobBytes / sizeof(float))
    throw WireError("float array of " + std::to_string(count) + " elements exceeds wire limit");
  require(count * sizeof(float), "float array");
  std::vector<float> values(static_cast<std::size_t>(count));
  f32_raw(values.data(), values.size());
  return values;
}

void WireReader::f32_raw(float* out, std::size_t count) {
  // An empty vector's data() may be null: memcpy to it is undefined even for
  // zero bytes.
  if (count == 0) return;
  const std::uint8_t* p = need(count * sizeof(float), "float payload");
  if constexpr (kLittleEndianHost) {
    std::memcpy(out, p, count * sizeof(float));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t v = 0;
      for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[i * 4 + b]) << (8 * b);
      out[i] = std::bit_cast<float>(v);
    }
  }
}

std::span<const std::uint8_t> WireReader::rest() {
  std::span<const std::uint8_t> r = bytes_.subspan(pos_);
  pos_ = bytes_.size();
  return r;
}

void WireReader::expect_end(const char* what) const {
  if (remaining() != 0)
    throw WireError(std::string(what) + ": " + std::to_string(remaining()) +
                    " trailing bytes after payload");
}

// --- Tensor ------------------------------------------------------------------

void encode_tensor(WireWriter& w, const dnn::Tensor& tensor) {
  w.u32(kTensorMagic);
  w.u16(kWireVersion);
  const dnn::Shape& s = tensor.shape();
  w.i32(s.c);
  w.i32(s.h);
  w.i32(s.w);
  w.f32_raw(tensor.data(), tensor.size());
}

dnn::Tensor decode_tensor(WireReader& r) {
  if (r.u32() != kTensorMagic) throw WireError("tensor: bad magic");
  check_version(r.u16(), "tensor");
  const std::int32_t c = r.i32();
  const std::int32_t h = r.i32();
  const std::int32_t w = r.i32();
  if (c <= 0 || h <= 0 || w <= 0 || c > kMaxTensorDim || h > kMaxTensorDim || w > kMaxTensorDim)
    throw WireError("tensor: invalid shape " + std::to_string(c) + "x" + std::to_string(h) +
                    "x" + std::to_string(w));
  const std::int64_t elements = std::int64_t{c} * h * w;
  if (elements > kMaxTensorElements)
    throw WireError("tensor: " + std::to_string(elements) + " elements exceeds wire limit");
  r.require(static_cast<std::size_t>(elements) * sizeof(float), "tensor");
  dnn::Tensor tensor(dnn::Shape{c, h, w});
  r.f32_raw(tensor.data(), tensor.size());
  return tensor;
}

std::vector<std::uint8_t> encode_tensor(const dnn::Tensor& tensor) {
  WireWriter w;
  encode_tensor(w, tensor);
  return w.take();
}

dnn::Tensor decode_tensor(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  dnn::Tensor tensor = decode_tensor(r);
  r.expect_end("tensor");
  return tensor;
}

// --- Envelope ----------------------------------------------------------------

void encode_envelope(WireWriter& w, const Envelope& envelope) {
  w.u32(kEnvelopeMagic);
  w.u16(kWireVersion);
  w.u64(envelope.meta.seq);
  w.str(envelope.meta.from_node);
  w.str(envelope.meta.to_node);
  w.str(envelope.meta.payload);
  w.u8(static_cast<std::uint8_t>(core::index(envelope.meta.from_tier)));
  w.u8(static_cast<std::uint8_t>(core::index(envelope.meta.to_tier)));
  w.i64(envelope.meta.bytes);
  w.blob(envelope.payload);
}

Envelope decode_envelope(WireReader& r) {
  if (r.u32() != kEnvelopeMagic) throw WireError("envelope: bad magic");
  check_version(r.u16(), "envelope");
  Envelope env;
  env.meta.seq = r.u64();
  env.meta.from_node = r.str();
  env.meta.to_node = r.str();
  env.meta.payload = r.str();
  const std::uint8_t from_tier = r.u8();
  const std::uint8_t to_tier = r.u8();
  if (from_tier > 2 || to_tier > 2) throw WireError("envelope: invalid tier");
  env.meta.from_tier = static_cast<core::Tier>(from_tier);
  env.meta.to_tier = static_cast<core::Tier>(to_tier);
  env.meta.bytes = r.i64();
  if (env.meta.bytes < 0) throw WireError("envelope: negative byte count");
  env.payload = r.blob();
  return env;
}

std::vector<std::uint8_t> encode_envelope(const Envelope& envelope) {
  WireWriter w;
  encode_envelope(w, envelope);
  return w.take();
}

Envelope decode_envelope(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  Envelope env = decode_envelope(r);
  r.expect_end("envelope");
  return env;
}

// --- Weight shards -----------------------------------------------------------

namespace {

// Expected parameter-vector sizes for one layer, mirroring
// WeightStore::random_for — the contract the kernels index by.
struct ExpectedSizes {
  std::size_t weights = 0, bias = 0, bn_scale = 0, bn_shift = 0;
};

ExpectedSizes expected_sizes(const dnn::Network& net, dnn::LayerId id) {
  const dnn::NetworkLayer& layer = net.layer(id);
  const auto in_shapes = net.input_shapes(id);
  ExpectedSizes e;
  switch (layer.spec.kind) {
    case dnn::LayerKind::kConv: {
      const std::size_t taps = static_cast<std::size_t>(layer.spec.window.kernel_w) *
                               layer.spec.window.kernel_h * in_shapes[0].c;
      e.weights = static_cast<std::size_t>(layer.spec.out_channels) * taps;
      e.bias = static_cast<std::size_t>(layer.spec.out_channels);
      break;
    }
    case dnn::LayerKind::kFullyConnected:
      e.weights = static_cast<std::size_t>(layer.spec.out_features) * in_shapes[0].elements();
      e.bias = static_cast<std::size_t>(layer.spec.out_features);
      break;
    case dnn::LayerKind::kBatchNorm:
      e.bn_scale = static_cast<std::size_t>(in_shapes[0].c);
      e.bn_shift = static_cast<std::size_t>(in_shapes[0].c);
      break;
    default:
      break;  // no parameters
  }
  return e;
}

}  // namespace

std::vector<std::uint8_t> encode_weight_shard(const exec::WeightStore& weights,
                                              const dnn::Network& net,
                                              const std::vector<bool>& keep) {
  if (weights.size() != net.num_layers())
    throw WireError("weight shard: store holds " + std::to_string(weights.size()) +
                    " layers, network has " + std::to_string(net.num_layers()));
  if (keep.size() != net.num_layers())
    throw WireError("weight shard: keep mask covers " + std::to_string(keep.size()) +
                    " layers, network has " + std::to_string(net.num_layers()));
  WireWriter w;
  w.u32(kWeightShardMagic);
  w.u16(kWireVersion);
  w.u32(static_cast<std::uint32_t>(weights.size()));
  for (dnn::LayerId id = 0; id < weights.size(); ++id) {
    w.u8(keep[id] ? 1 : 0);
    if (!keep[id]) continue;
    const exec::LayerWeights& lw = weights.layer(id);
    w.f32_array(lw.weights);
    w.f32_array(lw.bias);
    w.f32_array(lw.bn_scale);
    w.f32_array(lw.bn_shift);
  }
  return w.take();
}

WeightShard decode_weight_shard(std::span<const std::uint8_t> bytes,
                                const dnn::Network& net) {
  WireReader r(bytes);
  if (r.u32() != kWeightShardMagic) throw WireError("weight shard: bad magic");
  check_version(r.u16(), "weight shard");
  const std::uint32_t count = r.u32();
  if (count != net.num_layers())
    throw WireError("weight shard: " + std::to_string(count) +
                    " layers on the wire, network has " + std::to_string(net.num_layers()));
  WeightShard shard;
  shard.present.assign(count, false);
  std::vector<exec::LayerWeights> layers(count);
  for (std::uint32_t id = 0; id < count; ++id) {
    const std::uint8_t flag = r.u8();
    if (flag > 1)
      throw WireError("weight shard: layer " + std::to_string(id) + " has presence flag " +
                      std::to_string(flag));
    if (flag == 0) continue;
    shard.present[id] = true;
    exec::LayerWeights& lw = layers[id];
    lw.weights = r.f32_array();
    lw.bias = r.f32_array();
    lw.bn_scale = r.f32_array();
    lw.bn_shift = r.f32_array();
    const ExpectedSizes e = expected_sizes(net, id);
    if (lw.weights.size() != e.weights || lw.bias.size() != e.bias ||
        lw.bn_scale.size() != e.bn_scale || lw.bn_shift.size() != e.bn_shift)
      throw WireError("weight shard: layer '" + net.layer(id).spec.name +
                      "' parameter sizes do not match the network");
  }
  r.expect_end("weight shard");
  shard.weights = exec::WeightStore::from_layers(std::move(layers));
  return shard;
}

std::uint64_t weights_hash(const exec::WeightStore& weights, const dnn::Network& net) {
  return fnv1a(encode_weight_shard(weights, net, std::vector<bool>(net.num_layers(), true)));
}

}  // namespace d3::rpc
