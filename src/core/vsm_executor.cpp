#include "core/vsm_executor.h"

#include <stdexcept>
#include <vector>

#include "exec/ops.h"

namespace d3::core {

namespace {

exec::Tile crop(const dnn::Tensor& full, const exec::Region& region) {
  const dnn::Shape& s = full.shape();
  if (region.x0 < 0 || region.y0 < 0 || region.x1 > s.w || region.y1 > s.h)
    throw std::invalid_argument("crop: region outside tensor");
  exec::Tile tile;
  tile.data = dnn::Tensor(dnn::Shape{s.c, region.height(), region.width()});
  tile.origin_x = region.x0;
  tile.origin_y = region.y0;
  tile.full_w = s.w;
  tile.full_h = s.h;
  exec::copy_region_from_map(full, region, tile.data.data());
  return tile;
}

const exec::Region& out_region_of(const FusedTilePlan& plan,
                                  const FusedTilePlan::TilePlan& tile, std::size_t j) {
  return j + 1 < plan.stack.size() ? tile.input_regions[j + 1] : tile.output_region;
}

std::pair<int, int> full_out_extent(const FusedTilePlan& plan, std::size_t j) {
  if (j + 1 < plan.stack.size())
    return {plan.input_shapes[j + 1].w, plan.input_shapes[j + 1].h};
  return {plan.output_shape.w, plan.output_shape.h};
}

}  // namespace

exec::Tile extract_tile_input(const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                              std::size_t tile_index) {
  if (!(stack_input.shape() == plan.input_shapes.front()))
    throw std::invalid_argument("extract_tile_input: input shape " +
                                stack_input.shape().to_string() + " != stack input " +
                                plan.input_shapes.front().to_string());
  return crop(stack_input, plan.tiles.at(tile_index).input_regions.front());
}

exec::Tile run_single_tile(const dnn::Network& net, const exec::WeightStore& weights,
                           const exec::Tile& input, const FusedTilePlan& plan,
                           std::size_t tile_index, const exec::OpContext& ctx) {
  const FusedTilePlan::TilePlan& tile_plan = plan.tiles.at(tile_index);
  exec::Tile current = input;
  for (std::size_t j = 0; j < plan.stack.size(); ++j) {
    const dnn::LayerId id = plan.stack[j];
    const dnn::LayerSpec& spec = net.layer(id).spec;
    const exec::Region& out = out_region_of(plan, tile_plan, j);
    const auto [full_w, full_h] = full_out_extent(plan, j);
    switch (spec.kind) {
      case dnn::LayerKind::kConv:
        current =
            exec::conv2d_region(current, spec, weights.layer(id), out, full_w, full_h, ctx);
        break;
      case dnn::LayerKind::kMaxPool:
      case dnn::LayerKind::kAvgPool:
        current = exec::pool_region(current, spec, out, full_w, full_h);
        break;
      case dnn::LayerKind::kReLU:
        current = exec::relu_region(std::move(current));
        break;
      case dnn::LayerKind::kBatchNorm:
        current = exec::batch_norm_region(std::move(current), weights.layer(id));
        break;
      default:
        throw std::logic_error("run_single_tile: non-tileable layer in plan");
    }
  }
  return current;
}

dnn::Tensor run_fused_tiles(const dnn::Network& net, const exec::WeightStore& weights,
                            const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                            const TileParallelFor& parallel_for,
                            const exec::OpContext& ctx) {
  std::vector<exec::Tile> out_tiles(plan.num_tiles());
  const auto compute = [&](std::size_t t) {
    const exec::Tile input = extract_tile_input(stack_input, plan, t);
    out_tiles[t] = run_single_tile(net, weights, input, plan, t, ctx);
  };
  if (parallel_for) {
    parallel_for(plan.num_tiles(), compute);
  } else {
    for (std::size_t t = 0; t < plan.num_tiles(); ++t) compute(t);
  }

  dnn::Tensor output(plan.output_shape);
  for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
    const exec::Region& region = plan.tiles[t].output_region;
    if (out_tiles[t].data.shape().h != region.height() ||
        out_tiles[t].data.shape().w != region.width())
      throw std::logic_error("run_fused_tiles: tile output does not match its region");
    exec::copy_region_to_map(out_tiles[t].data.data(), region, output);
  }
  return output;
}

dnn::Tensor run_stack_serial(const dnn::Network& net, const exec::WeightStore& weights,
                             const dnn::Tensor& stack_input,
                             std::span<const dnn::LayerId> stack) {
  if (stack.empty()) throw std::invalid_argument("run_stack_serial: empty stack");
  dnn::Tensor current = stack_input;
  for (const dnn::LayerId id : stack) {
    const dnn::LayerSpec& spec = net.layer(id).spec;
    switch (spec.kind) {
      case dnn::LayerKind::kConv:
        current = exec::conv2d(current, spec, weights.layer(id));
        break;
      case dnn::LayerKind::kMaxPool:
      case dnn::LayerKind::kAvgPool:
        current = exec::pool2d(current, spec);
        break;
      case dnn::LayerKind::kReLU:
        current = exec::relu(std::move(current));
        break;
      case dnn::LayerKind::kBatchNorm:
        current = exec::batch_norm(std::move(current), weights.layer(id));
        break;
      default:
        throw std::logic_error("run_stack_serial: non-tileable layer");
    }
  }
  return current;
}

}  // namespace d3::core
