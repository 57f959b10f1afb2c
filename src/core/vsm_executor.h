// Lossless tiled execution of a fused tile plan (the per-edge-node compute of
// Fig. 8): each tile's stack runs independently from its own input crop, then
// the output tiles are gathered into the full feature map.
//
// Because every tile op is the same region-aware kernel the reference executor
// uses (exec/ops.h), the gathered result equals the serial execution *exactly*
// (bitwise float equality) — the paper's "no precision loss" claim, which the
// test suite asserts.
#pragma once

#include <functional>

#include "core/vsm.h"
#include "dnn/tensor.h"
#include "exec/ops.h"
#include "exec/weights.h"

namespace d3::core {

// Parallelism hook for tile execution: invoked as parallel_for(n, body) and
// expected to run body(0..n-1) (in any order, possibly concurrently) and
// return only when all calls finished. runtime::ThreadPool::parallel_for
// satisfies this contract; an empty function means a serial loop. Keeping the
// hook a plain std::function lets core stay independent of the runtime layer.
using TileParallelFor =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

// Extracts the input crop one edge node needs for `tile_index` (what the
// online engine would scatter to that node).
exec::Tile extract_tile_input(const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                              std::size_t tile_index);

// Runs the whole stack for one tile, returning its slice of ck's output.
// `ctx` reaches the conv kernels: with an intra-op parallel_for their GEMMs
// split into disjoint output blocks, bitwise-identical to the serial call.
exec::Tile run_single_tile(const dnn::Network& net, const exec::WeightStore& weights,
                           const exec::Tile& input, const FusedTilePlan& plan,
                           std::size_t tile_index, const exec::OpContext& ctx = {});

// Scatter + per-tile execution + gather: the full output feature map of ck.
// `stack_input` must match the stack's first-layer input shape. When
// `parallel_for` is non-empty the per-tile stacks run under it (each tile
// writes only its own slot, so any schedule is race-free); the gathered result
// is bitwise-identical either way because assembly is always in tile order.
// `ctx` is forwarded to every tile's run_single_tile; its parallel_for may
// share a pool with `parallel_for` (a nested call helps drain the queue), but
// its arena must stay null when tiles run concurrently (an Arena is not
// thread-safe; null means each thread's own arena).
dnn::Tensor run_fused_tiles(const dnn::Network& net, const exec::WeightStore& weights,
                            const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                            const TileParallelFor& parallel_for = {},
                            const exec::OpContext& ctx = {});

// Serial reference: the same stack run on the whole input (no tiling).
dnn::Tensor run_stack_serial(const dnn::Network& net, const exec::WeightStore& weights,
                             const dnn::Tensor& stack_input,
                             std::span<const dnn::LayerId> stack);

}  // namespace d3::core
