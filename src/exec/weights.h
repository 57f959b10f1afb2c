// Learnable parameters for executable networks, and synthetic initialisation.
//
// The paper runs pre-trained ImageNet models; trained weights are unavailable
// offline, and VSM losslessness (the property under test) is a numerical identity
// that holds for *any* weights, so tests and examples use seeded random weights
// (see DESIGN.md, substitutions table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"
#include "util/rng.h"

namespace d3::core {
struct SerializablePlan;
}

namespace d3::exec {

struct LayerWeights {
  // Conv: OIHW layout, size out_channels * in_channels * kh * kw.
  // Fully-connected: row-major [out_features][in_features].
  std::vector<float> weights;
  std::vector<float> bias;      // conv / fc, size = outputs
  std::vector<float> bn_scale;  // batch-norm folded scale, size = channels
  std::vector<float> bn_shift;  // batch-norm folded shift, size = channels
};

class WeightStore {
 public:
  WeightStore() = default;

  const LayerWeights& layer(dnn::LayerId id) const { return per_layer_.at(id); }
  std::size_t size() const { return per_layer_.size(); }

  // He-style random initialisation for every parameterised layer of `net`.
  // Deterministic in `seed`.
  static WeightStore random_for(const dnn::Network& net, std::uint64_t seed);

  // Adopts explicit per-layer parameters (one entry per network layer) — how a
  // remote node rebuilds the store it received over the wire
  // (rpc::decode_weight_shard validates the sizes against the network first).
  static WeightStore from_layers(std::vector<LayerWeights> layers);

  // The layers node `node` executes under `plan`, as a per-layer mask: the
  // tier nodes device0 / edge0 / cloud0 own their tier's layers, and any other
  // edgeN name is a VSM tile worker owning exactly the fused stack (every
  // shard runs every stack layer on its tiles). Throws std::invalid_argument
  // for a node name the plan gives no work to.
  static std::vector<bool> layers_for_node(const core::SerializablePlan& plan,
                                           const std::string& node);

 private:
  std::vector<LayerWeights> per_layer_;
};

// Uniform [-1, 1) tensor, deterministic in `rng` state. Stands in for ImageNet
// input frames.
dnn::Tensor random_tensor(const dnn::Shape& shape, util::Rng& rng);

}  // namespace d3::exec
