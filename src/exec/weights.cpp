#include "exec/weights.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/plan_io.h"

namespace d3::exec {

WeightStore WeightStore::random_for(const dnn::Network& net, std::uint64_t seed) {
  util::Rng rng(seed);
  WeightStore store;
  store.per_layer_.resize(net.num_layers());
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) {
    const dnn::NetworkLayer& layer = net.layer(id);
    const auto in_shapes = net.input_shapes(id);
    LayerWeights& w = store.per_layer_[id];
    switch (layer.spec.kind) {
      case dnn::LayerKind::kConv: {
        const int in_c = in_shapes[0].c;
        const int taps = layer.spec.window.kernel_w * layer.spec.window.kernel_h * in_c;
        const double scale = std::sqrt(2.0 / taps);
        w.weights.resize(static_cast<std::size_t>(layer.spec.out_channels) * taps);
        for (auto& v : w.weights) v = static_cast<float>(rng.normal(0.0, scale));
        w.bias.resize(static_cast<std::size_t>(layer.spec.out_channels));
        for (auto& v : w.bias) v = static_cast<float>(rng.uniform(-0.1, 0.1));
        break;
      }
      case dnn::LayerKind::kFullyConnected: {
        const std::int64_t in_n = in_shapes[0].elements();
        const double scale = std::sqrt(2.0 / static_cast<double>(in_n));
        w.weights.resize(static_cast<std::size_t>(layer.spec.out_features * in_n));
        for (auto& v : w.weights) v = static_cast<float>(rng.normal(0.0, scale));
        w.bias.resize(static_cast<std::size_t>(layer.spec.out_features));
        for (auto& v : w.bias) v = static_cast<float>(rng.uniform(-0.1, 0.1));
        break;
      }
      case dnn::LayerKind::kBatchNorm: {
        w.bn_scale.resize(static_cast<std::size_t>(in_shapes[0].c));
        w.bn_shift.resize(static_cast<std::size_t>(in_shapes[0].c));
        for (auto& v : w.bn_scale) v = static_cast<float>(rng.uniform(0.5, 1.5));
        for (auto& v : w.bn_shift) v = static_cast<float>(rng.uniform(-0.5, 0.5));
        break;
      }
      default:
        break;  // no parameters
    }
  }
  return store;
}

WeightStore WeightStore::from_layers(std::vector<LayerWeights> layers) {
  WeightStore store;
  store.per_layer_ = std::move(layers);
  return store;
}

std::vector<bool> WeightStore::layers_for_node(const core::SerializablePlan& plan,
                                               const std::string& node) {
  if (plan.assignment.tier.empty())
    throw std::invalid_argument("layers_for_node: plan has an empty assignment");
  const std::size_t num_layers = plan.assignment.tier.size() - 1;
  std::vector<bool> mask(num_layers, false);
  std::optional<core::Tier> tier;
  if (node == "device0") tier = core::Tier::kDevice;
  else if (node == "edge0") tier = core::Tier::kEdge;
  else if (node == "cloud0") tier = core::Tier::kCloud;
  if (tier) {
    // Vertex 0 is the virtual input; layer i sits at tier[i + 1].
    for (std::size_t id = 0; id < num_layers; ++id)
      if (plan.assignment.tier[id + 1] == *tier) mask[id] = true;
    return mask;
  }
  // Any other edgeN name is a VSM tile-worker shard: it runs every fused
  // stack layer (on its tiles), and nothing else.
  if (node.size() > 4 && node.compare(0, 4, "edge") == 0 && plan.vsm) {
    for (const dnn::LayerId id : plan.vsm->stack) mask.at(id) = true;
    return mask;
  }
  throw std::invalid_argument("layers_for_node: plan assigns no layers to node '" + node + "'");
}

dnn::Tensor random_tensor(const dnn::Shape& shape, util::Rng& rng) {
  dnn::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

}  // namespace d3::exec
