// Deployment bundles: the one form a deployment reaches a worker in. `d3c`
// writes one per node for `d3_node --bundle` to boot from, and every kConfig
// body carries one (PROTOCOL.md).
//
// One bundle is everything a single node needs to come up live:
//
//   u32 bundle magic | u16 wire version
//   str node_name            the worker this bundle was compiled for
//   str model_name           resolved against the shared model zoo at boot
//   u32 vsm_workers          pool width the node serves tiles with
//   u64 weights_hash         rpc::weights_hash of the whole model —
//                            identical across every node's bundle, the O(1)
//                            identity a weights-elided bundle is checked by
//   blob plan_bytes          serialize_plan_binary output, verbatim
//   blob shard_bytes         encode_weight_shard output: only the layers
//                            this node executes carry parameters (empty
//                            when the weights are elided)
//   blob book_text           the address-book file, so the node finds its
//                            own listen endpoint without any flag plumbing
//                            (empty in a kConfig)
//   u64 content_hash         FNV-1a over every preceding byte of the bundle
//
// Decoding is exactly as strict as plan_io: truncation at any boundary, a bad
// magic or version, trailing bytes, and a content-hash mismatch all raise
// rpc::WireError instead of yielding a partially-populated bundle. Plan and
// shard validation against the model happen one level up (the consumer
// resolves model_name against the zoo first); shard/plan agreement is
// enforced by the worker's one install path (a --bundle boot or a kConfig) via
// WeightStore::layers_for_node.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "exec/weights.h"

namespace d3::core {

struct DeploymentBundle {
  std::string node_name;
  std::string model_name;
  std::uint32_t vsm_workers = 0;
  std::uint64_t weights_hash = 0;
  std::vector<std::uint8_t> plan_bytes;
  std::vector<std::uint8_t> shard_bytes;
  std::string book_text;
};

// Compiles `node`'s bundle for one deployment of `net`: the caller's plan
// bytes verbatim (a worker keys kConfig idempotence on their hash, so d3c's
// file and the coordinator's kConfig for one deployment must hold identical
// bytes) and the shard of exactly the layers WeightStore::layers_for_node
// gives `node` — no shard at all when `elided`. book_text is left empty.
DeploymentBundle compile_bundle(const dnn::Network& net, const exec::WeightStore& weights,
                                std::span<const std::uint8_t> plan_bytes,
                                const std::string& node, std::uint32_t vsm_workers,
                                std::uint64_t weights_hash, bool elided = false);

std::vector<std::uint8_t> encode_bundle(const DeploymentBundle& bundle);
DeploymentBundle decode_bundle(std::span<const std::uint8_t> bytes);

// Atomic on-disk form: writes `path + ".tmp"` then renames, so a half-written
// bundle can never be booted from. Returns the bytes written. Throws
// std::runtime_error on I/O failure.
std::size_t write_bundle_file(const std::string& path, const DeploymentBundle& bundle);

// mmap-loads and decodes the file at `path` (read-only; the copy into the
// returned bundle is the only pass over the bytes). Throws std::runtime_error
// on I/O failure and rpc::WireError on malformed content.
DeploymentBundle load_bundle_file(const std::string& path);

}  // namespace d3::core
