#include "exec/executor.h"

#include <stdexcept>

#include "exec/ops.h"

namespace d3::exec {

Executor::Executor(const dnn::Network& net, const WeightStore& weights)
    : net_(net), weights_(weights) {}

dnn::Tensor run_layer(const dnn::Network& net, const WeightStore& weights, dnn::LayerId id,
                      const std::vector<const dnn::Tensor*>& ins, const OpContext& ctx) {
  const dnn::LayerSpec& spec = net.layer(id).spec;
  const LayerWeights& w = weights.layer(id);
  switch (spec.kind) {
    case dnn::LayerKind::kConv: return conv2d(*ins[0], spec, w, ctx);
    case dnn::LayerKind::kMaxPool:
    case dnn::LayerKind::kAvgPool: return pool2d(*ins[0], spec);
    case dnn::LayerKind::kGlobalAvgPool: return global_avg_pool(*ins[0]);
    case dnn::LayerKind::kFullyConnected: return fully_connected(*ins[0], spec, w, ctx);
    case dnn::LayerKind::kReLU: return relu(*ins[0]);
    case dnn::LayerKind::kBatchNorm: return batch_norm(*ins[0], w);
    case dnn::LayerKind::kConcat: return concat(ins);
    case dnn::LayerKind::kAdd: return add(ins);
    case dnn::LayerKind::kSoftmax: return softmax(*ins[0]);
  }
  throw std::logic_error("Executor: unhandled layer kind");
}

std::vector<dnn::Tensor> Executor::run_all(const dnn::Tensor& input) const {
  if (!(input.shape() == net_.input_shape()))
    throw std::invalid_argument("Executor::run_all: input shape " + input.shape().to_string() +
                                " != network input " + net_.input_shape().to_string());
  std::vector<dnn::Tensor> outputs;
  outputs.reserve(net_.num_layers());
  // Layers are stored in insertion order, which is a topological order by
  // construction (a layer may only reference earlier ids).
  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    std::vector<const dnn::Tensor*> ins;
    ins.reserve(net_.layer(id).inputs.size());
    for (const dnn::LayerId in : net_.layer(id).inputs)
      ins.push_back(in == dnn::kNetworkInput ? &input : &outputs[in]);
    outputs.push_back(run_layer(net_, weights_, id, ins, context()));
  }
  return outputs;
}

dnn::Tensor Executor::run(const dnn::Tensor& input) const {
  auto outputs = run_all(input);
  if (outputs.empty()) throw std::logic_error("Executor::run: empty network");
  return std::move(outputs.back());
}

std::vector<dnn::Tensor> Executor::run_batch(const std::vector<dnn::Tensor>& inputs) const {
  std::vector<dnn::Tensor> outputs;
  outputs.reserve(inputs.size());
  for (const dnn::Tensor& input : inputs) outputs.push_back(run(input));
  return outputs;
}

dnn::Tensor Executor::run_segment(const dnn::Tensor& input, dnn::LayerId first,
                                  dnn::LayerId last) const {
  if (first > last || last >= net_.num_layers())
    throw std::invalid_argument("Executor::run_segment: bad range");
  std::vector<dnn::Tensor> outputs(net_.num_layers());
  for (dnn::LayerId id = first; id <= last; ++id) {
    std::vector<const dnn::Tensor*> ins;
    for (const dnn::LayerId in : net_.layer(id).inputs) {
      const bool is_segment_input =
          (in == dnn::kNetworkInput && first == 0) || (in + 1 == first);
      if (is_segment_input) {
        ins.push_back(&input);
      } else if (in != dnn::kNetworkInput && in >= first && in <= last) {
        ins.push_back(&outputs[in]);
      } else {
        throw std::invalid_argument("Executor::run_segment: layer '" + net_.layer(id).spec.name +
                                    "' reads outside the segment");
      }
    }
    outputs[id] = run_layer(net_, weights_, id, ins, context());
  }
  return std::move(outputs[last]);
}

}  // namespace d3::exec
