// Deployment-bundle codec acceptance: the bundle container and the
// weight-shard codec inside it are exactly as strict as plan_io — truncation
// at every byte boundary, bad magic/version, trailing bytes, and content-hash
// corruption all throw instead of yielding a partially-populated bundle;
// round-trips are bit-exact; compile_bundle carries the caller's plan bytes
// verbatim; and the plan-driven shard mask puts parameters on exactly the
// layers a node executes.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.h"
#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/weights.h"
#include "rpc/wire.h"

namespace d3::core {
namespace {

SerializablePlan sample_plan(const dnn::Network& net) {
  SerializablePlan plan;
  plan.model_name = net.name();
  plan.assignment.tier.assign(net.num_layers() + 1, Tier::kCloud);
  plan.assignment.tier[0] = Tier::kDevice;
  for (graph::VertexId v = 1; v <= 3; ++v) plan.assignment.tier[v] = Tier::kDevice;
  for (graph::VertexId v = 4; v <= 6; ++v) plan.assignment.tier[v] = Tier::kEdge;
  return plan;
}

DeploymentBundle sample_bundle(const dnn::Network& net, const exec::WeightStore& weights,
                               const std::string& node) {
  DeploymentBundle bundle = compile_bundle(net, weights, serialize_plan_binary(sample_plan(net)),
                                           node, 0, rpc::weights_hash(weights, net));
  bundle.book_text =
      "[coordinator]\nactive 127.0.0.1:9000\n[workers]\n"
      "device0 127.0.0.1:9001\nedge0 127.0.0.1:9002\ncloud0 127.0.0.1:9003\n";
  return bundle;
}

// Recomputes the trailing content hash after a deliberate field corruption,
// so the test exercises the *field* check, not just the checksum.
std::vector<std::uint8_t> rehash(std::vector<std::uint8_t> bytes) {
  rpc::WireWriter w;
  w.u64(rpc::fnv1a(std::span(bytes).first(bytes.size() - 8)));
  const std::vector<std::uint8_t> trailer = w.take();
  std::copy(trailer.begin(), trailer.end(), bytes.end() - 8);
  return bytes;
}

TEST(BundleIo, RoundTripPreservesEveryField) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const DeploymentBundle original = sample_bundle(net, weights, "edge0");
  const DeploymentBundle parsed = decode_bundle(encode_bundle(original));
  EXPECT_EQ(parsed.node_name, original.node_name);
  EXPECT_EQ(parsed.model_name, original.model_name);
  EXPECT_EQ(parsed.vsm_workers, original.vsm_workers);
  EXPECT_EQ(parsed.weights_hash, original.weights_hash);
  EXPECT_EQ(parsed.plan_bytes, original.plan_bytes);
  EXPECT_EQ(parsed.shard_bytes, original.shard_bytes);
  EXPECT_EQ(parsed.book_text, original.book_text);
}

TEST(BundleIo, FileRoundTripAndAtomicOverwrite) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "edge0.d3b").string();
  std::filesystem::remove(path);
  // The returned count is the file's size: the encoding it wrote, once.
  const DeploymentBundle edge = sample_bundle(net, weights, "edge0");
  const std::size_t written = write_bundle_file(path, edge);
  EXPECT_EQ(written, encode_bundle(edge).size());
  EXPECT_EQ(std::filesystem::file_size(path), written);
  EXPECT_EQ(load_bundle_file(path).node_name, "edge0");
  // A recompile overwrites in place (tmp + rename): the new content wins and
  // no ".tmp" residue is left behind.
  write_bundle_file(path, sample_bundle(net, weights, "cloud0"));
  EXPECT_EQ(load_bundle_file(path).node_name, "cloud0");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(BundleIo, CompileCarriesPlanBytesVerbatimAndExactlyTheNodeShard) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const SerializablePlan plan = sample_plan(net);
  const std::vector<std::uint8_t> plan_bytes = serialize_plan_binary(plan);
  // The weights identity is the all-layers shard encoding's FNV-1a, and it
  // tells two stores apart.
  const std::uint64_t hash = rpc::weights_hash(weights, net);
  EXPECT_EQ(hash, rpc::fnv1a(rpc::encode_weight_shard(
                      weights, net, std::vector<bool>(net.num_layers(), true))));
  EXPECT_NE(hash, rpc::weights_hash(exec::WeightStore::random_for(net, 8), net));
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    const DeploymentBundle bundle = compile_bundle(net, weights, plan_bytes, node, 3, hash);
    EXPECT_EQ(bundle.node_name, node);
    EXPECT_EQ(bundle.model_name, net.name());
    EXPECT_EQ(bundle.vsm_workers, 3u);
    EXPECT_EQ(bundle.weights_hash, hash);
    EXPECT_EQ(bundle.plan_bytes, plan_bytes);
    EXPECT_EQ(bundle.shard_bytes,
              rpc::encode_weight_shard(weights, net,
                                       exec::WeightStore::layers_for_node(plan, node)));
    EXPECT_TRUE(bundle.book_text.empty());
    // Elided: the same identity, no shard at all.
    const DeploymentBundle elided =
        compile_bundle(net, weights, plan_bytes, node, 3, hash, /*elided=*/true);
    EXPECT_EQ(elided.plan_bytes, plan_bytes);
    EXPECT_EQ(elided.weights_hash, hash);
    EXPECT_TRUE(elided.shard_bytes.empty());
  }
}

TEST(BundleIo, TruncationAlwaysThrows) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const std::vector<std::uint8_t> wire = encode_bundle(sample_bundle(net, weights, "device0"));
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_THROW(decode_bundle(std::span(wire).first(len)), rpc::WireError) << len;
}

TEST(BundleIo, AnySingleFlippedByteIsCaughtByTheContentHash) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const std::vector<std::uint8_t> wire = encode_bundle(sample_bundle(net, weights, "cloud0"));
  // Every position, including the trailer itself: a corrupted checksum is as
  // fatal as corrupted content.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{6}, wire.size() / 2,
                                wire.size() - 9, wire.size() - 1}) {
    std::vector<std::uint8_t> bad = wire;
    bad[pos] ^= 0xFF;
    EXPECT_THROW(decode_bundle(bad), rpc::WireError) << pos;
  }
}

TEST(BundleIo, RejectsBadMagicVersionAndTrailingBytes) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  const std::vector<std::uint8_t> wire = encode_bundle(sample_bundle(net, weights, "edge0"));
  {
    // Valid checksum over a wrong magic: the magic check itself must fire.
    std::vector<std::uint8_t> bad = wire;
    bad[0] ^= 0xFF;
    EXPECT_THROW(decode_bundle(rehash(std::move(bad))), rpc::WireError);
  }
  {
    // Valid checksum over an unsupported version.
    std::vector<std::uint8_t> bad = wire;
    bad[4] ^= 0xFF;
    EXPECT_THROW(decode_bundle(rehash(std::move(bad))), rpc::WireError);
  }
  {
    // A surplus byte between the fields and the trailer, checksummed as if it
    // belonged: strict expect_end must still reject it.
    std::vector<std::uint8_t> bad = wire;
    bad.insert(bad.end() - 8, 0);
    EXPECT_THROW(decode_bundle(rehash(std::move(bad))), rpc::WireError);
  }
  {
    std::vector<std::uint8_t> bad = wire;
    bad.push_back(0);  // trailing byte shifts the trailer: hash mismatch
    EXPECT_THROW(decode_bundle(bad), rpc::WireError);
  }
}

TEST(BundleIo, EmptyAndMissingFilesFailLoudly) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "empty.d3b").string();
  { std::FILE* f = std::fopen(path.c_str(), "wb"); ASSERT_NE(f, nullptr); std::fclose(f); }
  EXPECT_THROW(load_bundle_file(path), rpc::WireError);
  EXPECT_THROW(load_bundle_file(path + ".does-not-exist"), std::runtime_error);
}

// --- the weight-shard codec inside the bundle --------------------------------

std::vector<std::uint32_t> bit_patterns(const std::vector<float>& values) {
  std::vector<std::uint32_t> bits;
  for (const float v : values) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

// Round-trips `weights` through a shard keeping `keep`: kept layers come back
// with bit-identical parameters, the rest empty. Counts the kept layers that
// ship empty weight and bias arrays into `weightless`.
void expect_shard_round_trip(const dnn::Network& net, const exec::WeightStore& weights,
                             const std::vector<bool>& keep, const std::string& what,
                             std::size_t& weightless) {
  const rpc::WeightShard shard =
      rpc::decode_weight_shard(rpc::encode_weight_shard(weights, net, keep), net);
  ASSERT_EQ(shard.present.size(), net.num_layers());
  ASSERT_EQ(shard.weights.size(), weights.size());
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) {
    EXPECT_EQ(shard.present[id], keep[id]) << what << " layer " << id;
    const exec::LayerWeights& a = weights.layer(id);
    const exec::LayerWeights& b = shard.weights.layer(id);
    if (keep[id]) {
      if (a.weights.empty() && a.bias.empty()) ++weightless;
      EXPECT_EQ(bit_patterns(b.weights), bit_patterns(a.weights)) << what << " layer " << id;
      EXPECT_EQ(bit_patterns(b.bias), bit_patterns(a.bias)) << what << " layer " << id;
      EXPECT_EQ(bit_patterns(b.bn_scale), bit_patterns(a.bn_scale)) << what << " layer " << id;
      EXPECT_EQ(bit_patterns(b.bn_shift), bit_patterns(a.bn_shift)) << what << " layer " << id;
    } else {
      EXPECT_TRUE(b.weights.empty() && b.bias.empty() && b.bn_scale.empty() &&
                  b.bn_shift.empty())
          << what << " layer " << id;
    }
  }
}

TEST(WeightShard, RoundTripCarriesExactlyTheKeptLayers) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 9);
  const SerializablePlan plan = sample_plan(net);
  std::size_t chain_weightless = 0;
  for (const char* node : {"device0", "edge0", "cloud0"})
    expect_shard_round_trip(net, weights, exec::WeightStore::layers_for_node(plan, node), node,
                            chain_weightless);
  EXPECT_GT(chain_weightless, 0u);
  // Every layer kept (what rpc::weights_hash encodes), on a branching model:
  // the parameterless layers ship empty arrays, whose null data() the raw
  // float copy must never touch (the UBSan job's guard).
  const dnn::Network branch = dnn::zoo::tiny_branch();
  std::size_t branch_weightless = 0;
  expect_shard_round_trip(branch, exec::WeightStore::random_for(branch, 99),
                          std::vector<bool>(branch.num_layers(), true), "all",
                          branch_weightless);
  EXPECT_GT(branch_weightless, 0u);  // the empty-array path ran
}

TEST(WeightShard, TierMasksPartitionTheModel) {
  // Every layer belongs to exactly one tier head's shard — no layer is
  // shipped twice, none is orphaned.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const SerializablePlan plan = sample_plan(net);
  const std::vector<bool> device = exec::WeightStore::layers_for_node(plan, "device0");
  const std::vector<bool> edge = exec::WeightStore::layers_for_node(plan, "edge0");
  const std::vector<bool> cloud = exec::WeightStore::layers_for_node(plan, "cloud0");
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id)
    EXPECT_EQ(int{device[id]} + int{edge[id]} + int{cloud[id]}, 1) << id;
}

TEST(WeightShard, UnknownNodeAndMissingVsmThrow) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const SerializablePlan plan = sample_plan(net);  // no vsm
  EXPECT_THROW(exec::WeightStore::layers_for_node(plan, "gpu7"), std::invalid_argument);
  // edge1 is a VSM fan-out worker; without a fused-tile plan there is nothing
  // for it to execute and the mask must refuse, not return all-absent.
  EXPECT_THROW(exec::WeightStore::layers_for_node(plan, "edge1"), std::invalid_argument);
}

TEST(WeightShard, VsmFanOutWorkersGetTheStackLayers) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  SerializablePlan plan = sample_plan(net);
  plan.vsm = make_fused_tile_plan(net, std::vector<dnn::LayerId>{3, 4, 5}, 2, 2);
  const std::vector<bool> keep = exec::WeightStore::layers_for_node(plan, "edge1");
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) {
    const bool in_stack = id == 3 || id == 4 || id == 5;
    EXPECT_EQ(keep[id], in_stack) << id;
  }
}

TEST(WeightShard, TruncationAlwaysThrows) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 9);
  const std::vector<bool> keep =
      exec::WeightStore::layers_for_node(sample_plan(net), "edge0");
  const std::vector<std::uint8_t> wire = rpc::encode_weight_shard(weights, net, keep);
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_THROW(rpc::decode_weight_shard(std::span(wire).first(len), net),
                 rpc::WireError)
        << len;
}

TEST(WeightShard, RejectsBadMagicFlagWrongModelAndTrailingBytes) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 9);
  const std::vector<bool> keep =
      exec::WeightStore::layers_for_node(sample_plan(net), "edge0");
  const std::vector<std::uint8_t> wire = rpc::encode_weight_shard(weights, net, keep);
  {
    std::vector<std::uint8_t> bad = wire;
    bad[0] ^= 0xFF;
    EXPECT_THROW(rpc::decode_weight_shard(bad, net), rpc::WireError);
  }
  {
    // The first presence flag sits right after magic+version+count; anything
    // but 0/1 is corruption, not a truthy bool.
    std::vector<std::uint8_t> bad = wire;
    bad[4 + 2 + 4] = 2;
    EXPECT_THROW(rpc::decode_weight_shard(bad, net), rpc::WireError);
  }
  {
    std::vector<std::uint8_t> bad = wire;
    bad.push_back(0);
    EXPECT_THROW(rpc::decode_weight_shard(bad, net), rpc::WireError);
  }
  // A shard encoded for one model must not decode against another (layer
  // count and parameter sizes disagree).
  EXPECT_THROW(rpc::decode_weight_shard(wire, dnn::zoo::tiny_branch()), rpc::WireError);
}

TEST(WeightShard, EncodeRejectsMismatchedMaskOrStore) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 9);
  EXPECT_THROW(rpc::encode_weight_shard(weights, net, std::vector<bool>(2, true)),
               rpc::WireError);
  const dnn::Network bigger = dnn::zoo::alexnet();
  ASSERT_NE(bigger.num_layers(), net.num_layers());
  EXPECT_THROW(rpc::encode_weight_shard(
                   weights, bigger, std::vector<bool>(bigger.num_layers(), true)),
               rpc::WireError);
}

}  // namespace
}  // namespace d3::core
