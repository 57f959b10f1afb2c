// Bitwise-equality harness for the optimised operator kernels (exec/ops.h)
// against the original scalar oracle (exec/ops_reference.h).
//
// The lossless-synergy claim of the whole system rests on the kernels being
// numerically *identical* — not close — to the reference loops, so every
// comparison here is exact (memcmp over the raw float storage), across
// randomized sweeps of kernel/stride/pad shapes, odd tile origins,
// halo-boundary regions, blocked-GEMM edge sizes, arena reuse, and intra-op
// parallel schedules.
#include <cstring>

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"
#include "exec/arena.h"
#include "exec/executor.h"
#include "exec/ops.h"
#include "exec/ops_reference.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace d3::exec {
namespace {

using dnn::LayerSpec;
using dnn::Shape;
using dnn::Tensor;
using dnn::Window;

void expect_bitwise(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0) return;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << ": first mismatch at flat index " << i;
  FAIL() << what << ": memcmp mismatch without element mismatch (NaN payload?)";
}

LayerWeights random_conv_weights(util::Rng& rng, int out_c, int in_c, const Window& win) {
  LayerWeights w;
  w.weights.resize(static_cast<std::size_t>(out_c) * in_c * win.kernel_h * win.kernel_w);
  for (auto& x : w.weights) x = static_cast<float>(rng.uniform(-1, 1));
  w.bias.resize(static_cast<std::size_t>(out_c));
  for (auto& x : w.bias) x = static_cast<float>(rng.uniform(-1, 1));
  return w;
}

Tile crop_tile(const Tensor& full, const Region& r) {
  Tile t;
  t.data = Tensor(Shape{full.shape().c, r.height(), r.width()});
  t.origin_x = r.x0;
  t.origin_y = r.y0;
  t.full_w = full.shape().w;
  t.full_h = full.shape().h;
  for (int c = 0; c < full.shape().c; ++c)
    for (int y = 0; y < r.height(); ++y)
      for (int x = 0; x < r.width(); ++x) t.data.at(c, y, x) = full.at(c, r.y0 + y, r.x0 + x);
  return t;
}

// Input rows/cols (clipped to the image) a window op needs for output region
// `out` — the exact halo.
Region receptive_field(const Window& win, const Region& out, int in_w, int in_h) {
  Region r;
  r.x0 = std::max(0, out.x0 * win.stride_w - win.pad_w);
  r.y0 = std::max(0, out.y0 * win.stride_h - win.pad_h);
  r.x1 = std::min(in_w, (out.x1 - 1) * win.stride_w - win.pad_w + win.kernel_w);
  r.y1 = std::min(in_h, (out.y1 - 1) * win.stride_h - win.pad_h + win.kernel_h);
  return r;
}

struct WindowCase {
  Window win;
  int in_c;
  int out_c;
  int in_h;
  int in_w;
};

// Kernel/stride/pad edge cases: 1x1, even kernels, rectangular kernels,
// stride > kernel (untouched input columns), pad >= kernel - 1, channel and
// pixel counts that exercise every blocked-GEMM edge (out_c % kMr, npix % kNr).
const WindowCase kWindowCases[] = {
    {{1, 1, 1, 1, 0, 0}, 1, 1, 5, 5},
    {{1, 1, 2, 2, 0, 0}, 3, 5, 9, 9},
    {{2, 2, 1, 1, 0, 0}, 2, 4, 6, 7},
    {{3, 3, 1, 1, 1, 1}, 3, 17, 11, 13},
    {{3, 3, 2, 2, 1, 1}, 4, 8, 12, 12},
    {{5, 5, 1, 1, 2, 2}, 2, 3, 9, 8},
    {{3, 2, 1, 1, 2, 1}, 3, 6, 7, 7},
    {{2, 3, 2, 1, 1, 2}, 2, 7, 8, 9},
    {{1, 1, 3, 3, 1, 1}, 2, 2, 10, 10},  // stride > kernel: gaps in touched set
    {{7, 7, 2, 2, 3, 3}, 3, 9, 21, 19},
    {{3, 3, 1, 1, 1, 1}, 8, 64, 16, 16},  // fills full register tiles
    {{3, 3, 1, 1, 0, 0}, 1, 1, 4, 3},     // single-output-pixel region
};

TEST(OpsKernels, ConvWholeMatchesReferenceBitwise) {
  util::Rng rng(11);
  for (const WindowCase& wc : kWindowCases) {
    Tensor in = random_tensor(Shape{wc.in_c, wc.in_h, wc.in_w}, rng);
    const LayerSpec spec = LayerSpec::conv("c", wc.out_c, wc.win);
    const LayerWeights w = random_conv_weights(rng, wc.out_c, wc.in_c, wc.win);
    expect_bitwise(conv2d(in, spec, w), reference::conv2d(in, spec, w),
                   "conv " + std::to_string(&wc - kWindowCases));
  }
}

TEST(OpsKernels, ConvRegionOddOriginsMatchReferenceBitwise) {
  util::Rng rng(12);
  for (const WindowCase& wc : kWindowCases) {
    Tensor in = random_tensor(Shape{wc.in_c, wc.in_h, wc.in_w}, rng);
    const LayerSpec spec = LayerSpec::conv("c", wc.out_c, wc.win);
    const LayerWeights w = random_conv_weights(rng, wc.out_c, wc.in_c, wc.win);
    const Shape out_shape = infer_output_shape(spec, {in.shape()});
    // Random interior output regions with odd origins; the input tile is the
    // exact receptive field (tight halo) or a one-larger margin.
    for (int trial = 0; trial < 6; ++trial) {
      const int x0 = static_cast<int>(rng.uniform_int(0, out_shape.w - 1));
      const int y0 = static_cast<int>(rng.uniform_int(0, out_shape.h - 1));
      const int x1 = static_cast<int>(rng.uniform_int(x0 + 1, out_shape.w));
      const int y1 = static_cast<int>(rng.uniform_int(y0 + 1, out_shape.h));
      const Region out{x0, y0, x1, y1};
      Region halo = receptive_field(wc.win, out, wc.in_w, wc.in_h);
      if (trial % 2 == 1) {  // grow the margin where possible
        halo.x0 = std::max(0, halo.x0 - 1);
        halo.y0 = std::max(0, halo.y0 - 1);
        halo.x1 = std::min(wc.in_w, halo.x1 + 1);
        halo.y1 = std::min(wc.in_h, halo.y1 + 1);
      }
      if (halo.width() <= 0 || halo.height() <= 0) continue;  // all-pad region
      const Tile tile = crop_tile(in, halo);
      const Tile got = conv2d_region(tile, spec, w, out, out_shape.w, out_shape.h);
      const Tile want = reference::conv2d_region(tile, spec, w, out, out_shape.w, out_shape.h);
      EXPECT_EQ(got.origin_x, want.origin_x);
      EXPECT_EQ(got.origin_y, want.origin_y);
      expect_bitwise(got.data, want.data, "conv region");
    }
  }
}

TEST(OpsKernels, ConvRegionMissingHaloThrowsLikeReference) {
  util::Rng rng(13);
  Tensor in = random_tensor(Shape{2, 10, 10}, rng);
  const Window win{3, 3, 1, 1, 0, 0};
  const LayerSpec spec = LayerSpec::conv("c", 2, win);
  const LayerWeights w = random_conv_weights(rng, 2, 2, win);
  const Region out{4, 4, 7, 7};
  Region halo = receptive_field(win, out, 10, 10);
  // Shave one column/row off the halo on each side in turn: both kernels must
  // reject the tile (the reference mid-loop, the fast kernel up front).
  for (int side = 0; side < 4; ++side) {
    Region cut = halo;
    if (side == 0) ++cut.x0;
    if (side == 1) --cut.x1;
    if (side == 2) ++cut.y0;
    if (side == 3) --cut.y1;
    const Tile tile = crop_tile(in, cut);
    EXPECT_THROW(conv2d_region(tile, spec, w, out, 8, 8), std::logic_error) << side;
    EXPECT_THROW(reference::conv2d_region(tile, spec, w, out, 8, 8), std::logic_error) << side;
  }
  // The exact halo is accepted by both.
  const Tile tile = crop_tile(in, halo);
  expect_bitwise(conv2d_region(tile, spec, w, out, 8, 8).data,
                 reference::conv2d_region(tile, spec, w, out, 8, 8).data, "exact halo");
}

TEST(OpsKernels, PoolMatchesReferenceBitwise) {
  util::Rng rng(14);
  for (const WindowCase& wc : kWindowCases) {
    if (wc.win.pad_w >= wc.win.kernel_w || wc.win.pad_h >= wc.win.kernel_h)
      continue;  // pooling windows never fully in padding
    Tensor in = random_tensor(Shape{wc.in_c, wc.in_h, wc.in_w}, rng);
    for (const bool is_max : {true, false}) {
      const LayerSpec spec = is_max ? LayerSpec::max_pool("p", wc.win)
                                    : LayerSpec::avg_pool("p", wc.win);
      expect_bitwise(pool2d(in, spec), reference::pool2d(in, spec),
                     is_max ? "max pool" : "avg pool");
      const Shape out_shape = infer_output_shape(spec, {in.shape()});
      for (int trial = 0; trial < 4; ++trial) {
        const int x0 = static_cast<int>(rng.uniform_int(0, out_shape.w - 1));
        const int y0 = static_cast<int>(rng.uniform_int(0, out_shape.h - 1));
        const Region out{x0, y0, static_cast<int>(rng.uniform_int(x0 + 1, out_shape.w)),
                         static_cast<int>(rng.uniform_int(y0 + 1, out_shape.h))};
        const Region halo = receptive_field(wc.win, out, wc.in_w, wc.in_h);
        if (halo.width() <= 0 || halo.height() <= 0) continue;
        const Tile tile = crop_tile(in, halo);
        expect_bitwise(pool_region(tile, spec, out, out_shape.w, out_shape.h).data,
                       reference::pool_region(tile, spec, out, out_shape.w, out_shape.h).data,
                       "pool region");
      }
    }
  }
}

TEST(OpsKernels, FullyConnectedMatchesReferenceBitwise) {
  util::Rng rng(15);
  for (const int out_n : {1, 3, 4, 5, 17, 64}) {
    for (const int in_n : {1, 7, 33, 256}) {
      Tensor in = random_tensor(Shape{in_n, 1, 1}, rng);
      const LayerSpec spec = LayerSpec::fully_connected("f", out_n);
      LayerWeights w;
      w.weights.resize(static_cast<std::size_t>(out_n) * in_n);
      for (auto& x : w.weights) x = static_cast<float>(rng.uniform(-1, 1));
      w.bias.resize(static_cast<std::size_t>(out_n));
      for (auto& x : w.bias) x = static_cast<float>(rng.uniform(-1, 1));
      expect_bitwise(fully_connected(in, spec, w), reference::fully_connected(in, spec, w),
                     "fc " + std::to_string(out_n) + "x" + std::to_string(in_n));
    }
  }
}

TEST(OpsKernels, FullyConnectedOnPoolMatchesReferenceBitwise) {
  // Shapes at or above the kernels' parallelism threshold (2^20 MACs): the
  // GEMV's 4-row blocks are split across the pool. Row counts cover one
  // partial block, whole blocks and a ragged tail.
  runtime::ThreadPool pool(4);
  std::size_t dispatches = 0;  // counted on the calling thread
  const ParallelFor parallel = [&](std::size_t n,
                                   const std::function<void(std::size_t)>& body) {
    ++dispatches;
    pool.parallel_for(n, body);
  };
  const OpContext ctx{nullptr, &parallel};
  util::Rng rng(21);
  for (const auto& [out_n, in_n] : {std::pair{3, 1 << 19}, std::pair{513, 2048},
                                   std::pair{1024, 1024}, std::pair{1027, 1536}}) {
    Tensor in = random_tensor(Shape{in_n, 1, 1}, rng);
    const LayerSpec spec = LayerSpec::fully_connected("f", out_n);
    LayerWeights w;
    w.weights.resize(static_cast<std::size_t>(out_n) * in_n);
    for (auto& x : w.weights) x = static_cast<float>(rng.uniform(-1, 1));
    w.bias.resize(static_cast<std::size_t>(out_n));
    for (auto& x : w.bias) x = static_cast<float>(rng.uniform(-1, 1));
    dispatches = 0;
    expect_bitwise(fully_connected(in, spec, w, ctx), reference::fully_connected(in, spec, w),
                   "pooled fc " + std::to_string(out_n) + "x" + std::to_string(in_n));
    // A single 4-row block has nothing to split; every larger shape must
    // actually reach the pool.
    EXPECT_EQ(dispatches, out_n > 4 ? 1u : 0u) << out_n << "x" << in_n;
  }
}

TEST(OpsKernels, FullyConnectedValidatesBiasSize) {
  Tensor in(Shape{3, 1, 1});
  const LayerSpec spec = LayerSpec::fully_connected("f", 2);
  LayerWeights w;
  w.weights.assign(6, 1.0f);  // correct weight size
  w.bias.assign(1, 0.0f);     // wrong bias size: must throw, not read OOB
  EXPECT_THROW(fully_connected(in, spec, w), std::invalid_argument);
  EXPECT_THROW(reference::fully_connected(in, spec, w), std::invalid_argument);
}

TEST(OpsKernels, ElementwiseAndShapeOpsMatchReferenceBitwise) {
  util::Rng rng(16);
  Tensor a = random_tensor(Shape{3, 5, 7}, rng);
  Tensor b = random_tensor(Shape{3, 5, 7}, rng);
  Tensor c = random_tensor(Shape{2, 5, 7}, rng);
  expect_bitwise(relu(a), reference::relu(a), "relu");
  expect_bitwise(add({&a, &b}), reference::add({&a, &b}), "add");
  expect_bitwise(concat({&a, &c}), reference::concat({&a, &c}), "concat");
  expect_bitwise(global_avg_pool(a), reference::global_avg_pool(a), "gap");
  Tensor logits = random_tensor(Shape{13, 1, 1}, rng);
  expect_bitwise(softmax(logits), reference::softmax(logits), "softmax");
  LayerWeights bn;
  bn.bn_scale.resize(3);
  bn.bn_shift.resize(3);
  for (auto& x : bn.bn_scale) x = static_cast<float>(rng.uniform(-2, 2));
  for (auto& x : bn.bn_shift) x = static_cast<float>(rng.uniform(-2, 2));
  expect_bitwise(batch_norm(a, bn), reference::batch_norm(a, bn), "batch_norm");
}

TEST(OpsKernels, MoveOverloadsReuseStorage) {
  util::Rng rng(17);
  Tensor t = random_tensor(Shape{2, 4, 4}, rng);
  const Tensor expected = reference::relu(t);
  const float* storage = t.data();
  Tensor out = relu(std::move(t));
  EXPECT_EQ(out.data(), storage);  // moved, not copied
  expect_bitwise(out, expected, "move relu");

  Tensor u = random_tensor(Shape{2, 4, 4}, rng);
  LayerWeights bn;
  bn.bn_scale = {2.0f, -1.0f};
  bn.bn_shift = {0.5f, 3.0f};
  const Tensor expected_bn = reference::batch_norm(u, bn);
  const float* storage_bn = u.data();
  Tensor out_bn = batch_norm(std::move(u), bn);
  EXPECT_EQ(out_bn.data(), storage_bn);
  expect_bitwise(out_bn, expected_bn, "move batch_norm");
}

TEST(OpsKernels, ArenaScopesReuseAndRewind) {
  Arena arena;
  {
    ArenaScope outer(arena);
    float* a = arena.floats(100);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
    float* b = nullptr;
    {
      ArenaScope inner(arena);
      b = arena.floats(1000);
      EXPECT_NE(a, b);
    }
    // The inner scope's space is reclaimed: the next allocation reuses it
    // (same bump offset) without touching the allocator.
    const std::size_t allocs = arena.chunk_allocations();
    float* c = arena.floats(1000);
    EXPECT_EQ(c, b);
    EXPECT_EQ(arena.chunk_allocations(), allocs);
  }
  EXPECT_EQ(arena.used(), 0u);
}

TEST(OpsKernels, ArenaSteadyStateIsAllocationFree) {
  util::Rng rng(18);
  Arena arena;
  OpContext ctx{&arena, nullptr};
  const Window win{3, 3, 1, 1, 1, 1};
  const LayerSpec small = LayerSpec::conv("s", 8, win);
  const LayerSpec large = LayerSpec::conv("l", 16, win);
  Tensor in_small = random_tensor(Shape{4, 9, 9}, rng);
  Tensor in_large = random_tensor(Shape{16, 17, 17}, rng);
  const LayerWeights w_small = random_conv_weights(rng, 8, 4, win);
  const LayerWeights w_large = random_conv_weights(rng, 16, 16, win);

  const Tensor first_small = conv2d(in_small, small, w_small, ctx);
  const Tensor first_large = conv2d(in_large, large, w_large, ctx);
  const std::size_t warm = arena.chunk_allocations();
  for (int i = 0; i < 5; ++i) {
    // Alternating shapes through the same arena: buffers are reused, results
    // stay bitwise-identical to the first pass (no aliasing corruption).
    expect_bitwise(conv2d(in_small, small, w_small, ctx), first_small, "arena small");
    expect_bitwise(conv2d(in_large, large, w_large, ctx), first_large, "arena large");
  }
  EXPECT_EQ(arena.chunk_allocations(), warm);
  EXPECT_EQ(arena.used(), 0u);  // every kernel scope rewound
}

// A tiny layer-by-layer interpreter over the reference kernels: the oracle for
// whole-network execution.
std::vector<Tensor> run_reference_network(const dnn::Network& net, const WeightStore& weights,
                                          const Tensor& input) {
  std::vector<Tensor> outputs;
  outputs.reserve(net.num_layers());
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) {
    std::vector<const Tensor*> ins;
    for (const dnn::LayerId in : net.layer(id).inputs)
      ins.push_back(in == dnn::kNetworkInput ? &input : &outputs[in]);
    const dnn::LayerSpec& spec = net.layer(id).spec;
    const LayerWeights& w = weights.layer(id);
    switch (spec.kind) {
      case dnn::LayerKind::kConv: outputs.push_back(reference::conv2d(*ins[0], spec, w)); break;
      case dnn::LayerKind::kMaxPool:
      case dnn::LayerKind::kAvgPool: outputs.push_back(reference::pool2d(*ins[0], spec)); break;
      case dnn::LayerKind::kGlobalAvgPool:
        outputs.push_back(reference::global_avg_pool(*ins[0]));
        break;
      case dnn::LayerKind::kFullyConnected:
        outputs.push_back(reference::fully_connected(*ins[0], spec, w));
        break;
      case dnn::LayerKind::kReLU: outputs.push_back(reference::relu(*ins[0])); break;
      case dnn::LayerKind::kBatchNorm:
        outputs.push_back(reference::batch_norm(*ins[0], w));
        break;
      case dnn::LayerKind::kConcat: outputs.push_back(reference::concat(ins)); break;
      case dnn::LayerKind::kAdd: outputs.push_back(reference::add(ins)); break;
      case dnn::LayerKind::kSoftmax: outputs.push_back(reference::softmax(*ins[0])); break;
    }
  }
  return outputs;
}

TEST(OpsKernels, ExecutorMatchesReferenceNetworkBitwise) {
  util::Rng rng(19);
  for (const dnn::Network& net : {dnn::zoo::tiny_chain(), dnn::zoo::tiny_branch()}) {
    const WeightStore weights = WeightStore::random_for(net, 99);
    const Tensor input = random_tensor(net.input_shape(), rng);
    const std::vector<Tensor> want = run_reference_network(net, weights, input);
    const std::vector<Tensor> got = Executor(net, weights).run_all(input);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      expect_bitwise(got[i], want[i], net.name() + " layer " + std::to_string(i));
  }
}

TEST(OpsKernels, IntraOpParallelExecutorIsBitwiseIdentical) {
  // A conv stack big enough to cross the kernels' parallelism threshold.
  const dnn::Network net = dnn::zoo::conv_stack(
      "par", Shape{16, 24, 24},
      {{64, Window{3, 3, 1, 1, 1, 1}}, {96, Window{3, 3, 1, 1, 1, 1}}});
  const WeightStore weights = WeightStore::random_for(net, 7);
  util::Rng rng(20);
  const Tensor input = random_tensor(net.input_shape(), rng);

  Executor serial(net, weights);
  const Tensor want = serial.run(input);

  runtime::ThreadPool pool(4);
  Executor parallel(net, weights);
  parallel.set_parallel_for(
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      });
  for (int i = 0; i < 3; ++i)
    expect_bitwise(parallel.run(input), want, "parallel executor run " + std::to_string(i));
}

}  // namespace
}  // namespace d3::exec
