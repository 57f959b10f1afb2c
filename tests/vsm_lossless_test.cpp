// The paper's central claim for VSM (§III-F): tiled execution is *lossless*.
// Because tiles carry their global coordinates and the exact halo computed by
// RTC, tiled and serial execution perform identical float operations — so these
// tests assert bitwise equality, not approximate closeness, across a
// parameterised sweep of stack shapes, windows and tile grids.
#include <atomic>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "core/vsm.h"
#include "core/vsm_executor.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace d3::core {
namespace {

using dnn::Shape;
using dnn::Window;

std::vector<dnn::LayerId> all_layers(const dnn::Network& net) {
  std::vector<dnn::LayerId> ids(net.num_layers());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

void expect_bitwise_equal(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "element " << i;
}

void check_lossless(const dnn::Network& net, int rows, int cols, std::uint64_t seed) {
  const auto ids = all_layers(net);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, seed);
  util::Rng rng(seed ^ 0xabcdef);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);

  const dnn::Tensor serial = run_stack_serial(net, weights, input, ids);
  const FusedTilePlan plan = make_fused_tile_plan(net, ids, rows, cols);
  const dnn::Tensor tiled = run_fused_tiles(net, weights, input, plan);
  expect_bitwise_equal(serial, tiled);
}

// Sweep: (kernel, stride, pad) x grid over a 3-conv stack.
class VsmWindowSweep
    : public ::testing::TestWithParam<std::tuple<std::tuple<int, int, int>, std::pair<int, int>>> {
};

TEST_P(VsmWindowSweep, TiledEqualsSerialBitwise) {
  const auto [window, grid] = GetParam();
  const auto [kernel, stride, pad] = window;
  const auto [rows, cols] = grid;
  const Window w{kernel, kernel, stride, stride, pad, pad};
  const dnn::Network net =
      dnn::zoo::conv_stack("sweep", Shape{3, 24, 24}, {{6, w}, {6, w}, {6, w}});
  const Shape out = net.layer(net.last()).output_shape;
  if (rows > out.h || cols > out.w) GTEST_SKIP() << "grid larger than output";
  check_lossless(net, rows, cols, 1000 + static_cast<std::uint64_t>(kernel * 100 + stride * 10 + pad));
}

INSTANTIATE_TEST_SUITE_P(
    Windows, VsmWindowSweep,
    ::testing::Combine(::testing::Values(std::tuple<int, int, int>{1, 1, 0},
                                         std::tuple<int, int, int>{3, 1, 0},
                                         std::tuple<int, int, int>{3, 1, 1},
                                         std::tuple<int, int, int>{3, 2, 1},
                                         std::tuple<int, int, int>{5, 1, 2},
                                         std::tuple<int, int, int>{5, 2, 2},
                                         std::tuple<int, int, int>{7, 1, 3},
                                         std::tuple<int, int, int>{2, 2, 0}),
                       ::testing::Values(std::pair<int, int>{1, 2}, std::pair<int, int>{2, 2},
                                         std::pair<int, int>{3, 3},
                                         std::pair<int, int>{1, 4})));

TEST(VsmLossless, MixedConvPoolReluBnStack) {
  dnn::Network net("mixed", Shape{3, 20, 20});
  dnn::LayerId x = net.conv("c1", dnn::kNetworkInput, 8, 3, 1, 1);
  x = net.add(dnn::LayerSpec::batch_norm("bn1"), {x});
  x = net.relu("r1", x);
  x = net.max_pool("p1", x, 2, 2);
  x = net.conv("c2", x, 8, 3, 1, 1);
  x = net.relu("r2", x);
  x = net.avg_pool("p2", x, 3, 1, 1);
  check_lossless(net, 2, 2, 42);
}

TEST(VsmLossless, AsymmetricKernelsAndPads) {
  // Inception-style 1x7 / 7x1 pairs.
  dnn::Network net("asym", Shape{4, 18, 18});
  dnn::LayerId x = net.conv_rect("c1x7", dnn::kNetworkInput, 6, 7, 1, 3, 0);
  x = net.conv_rect("c7x1", x, 6, 1, 7, 0, 3);
  x = net.conv_rect("c1x3", x, 6, 3, 1, 1, 0);
  check_lossless(net, 3, 2, 43);
}

TEST(VsmLossless, StridedDownsamplingStack) {
  const dnn::Network net = dnn::zoo::conv_stack(
      "strided", Shape{3, 33, 33},
      {{8, Window{3, 3, 2, 2, 1, 1}}, {8, Window{3, 3, 2, 2, 1, 1}}});
  check_lossless(net, 2, 2, 44);
}

TEST(VsmLossless, MaxPoolPaddingWithNegativeActivations) {
  // Max-pool padding must be -inf, not 0: feed a stack whose activations are
  // negative at the borders (bn shifts negative).
  dnn::Network net("negpool", Shape{2, 12, 12});
  dnn::LayerId x = net.conv("c", dnn::kNetworkInput, 4, 3, 1, 1);
  x = net.max_pool("p", x, 3, 1, 1);
  check_lossless(net, 2, 2, 45);
}

TEST(VsmLossless, UnevenGridDivision) {
  // 13 is not divisible by 3: balanced split produces uneven tiles.
  const dnn::Network net = dnn::zoo::conv_stack(
      "uneven", Shape{3, 13, 13}, {{5, Window{3, 3, 1, 1, 1, 1}}});
  check_lossless(net, 3, 3, 46);
}

TEST(VsmLossless, DeepStack) {
  // Six layers: halos accumulate across the stack (paper Fig. 8 shows three).
  std::vector<std::pair<int, Window>> convs(6, {4, Window{3, 3, 1, 1, 1, 1}});
  const dnn::Network net = dnn::zoo::conv_stack("deep", Shape{3, 30, 30}, convs);
  check_lossless(net, 2, 2, 47);
}

TEST(VsmLossless, VggStylePrefix) {
  // Two VGG blocks (3x3/p1 convs + 2x2 pools) on a reduced input.
  dnn::Network net("vggish", Shape{3, 32, 32});
  dnn::LayerId x = net.conv("c1", dnn::kNetworkInput, 8, 3, 1, 1);
  x = net.relu("r1", x);
  x = net.conv("c2", x, 8, 3, 1, 1);
  x = net.relu("r2", x);
  x = net.max_pool("p1", x, 2, 2);
  x = net.conv("c3", x, 16, 3, 1, 1);
  x = net.relu("r3", x);
  x = net.max_pool("p2", x, 2, 2);
  check_lossless(net, 2, 2, 48);
}

// Randomised stacks: any window/stride/pad combination must stay lossless.
class VsmRandomStack : public ::testing::TestWithParam<int> {};

TEST_P(VsmRandomStack, TiledEqualsSerialBitwise) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int size = static_cast<int>(rng.uniform_int(16, 32));
  dnn::Network net("rand", Shape{3, size, size});
  dnn::LayerId x = dnn::kNetworkInput;
  const int layers = static_cast<int>(rng.uniform_int(1, 4));
  for (int j = 0; j < layers; ++j) {
    const Shape cur = x == dnn::kNetworkInput ? net.input_shape() : net.layer(x).output_shape;
    const int max_k = std::min({5, cur.h, cur.w});
    const int k = static_cast<int>(rng.uniform_int(1, max_k));
    const int s = static_cast<int>(rng.uniform_int(1, 2));
    const int p = static_cast<int>(rng.uniform_int(0, k / 2));
    x = net.conv("c" + std::to_string(j), x, 4, k, s, p);
    if (rng.chance(0.5)) x = net.relu("r" + std::to_string(j), x);
  }
  const Shape out = net.layer(net.last()).output_shape;
  const int rows = static_cast<int>(rng.uniform_int(1, std::min(3, out.h)));
  const int cols = static_cast<int>(rng.uniform_int(1, std::min(3, out.w)));
  check_lossless(net, rows, cols, static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VsmRandomStack, ::testing::Range(1, 26));

TEST(VsmLossless, SingleTileDegenerateGrid) {
  // 1x1 grid: one "tile" covering everything must equal serial trivially.
  const dnn::Network net = dnn::zoo::conv_stack(
      "one", Shape{3, 10, 10}, {{4, Window{3, 3, 1, 1, 1, 1}}});
  check_lossless(net, 1, 1, 49);
}

TEST(VsmExecutor, SingleTileMatchesItsRegion) {
  const dnn::Network net = dnn::zoo::conv_stack(
      "region", Shape{3, 16, 16}, {{4, Window{3, 3, 1, 1, 1, 1}}});
  const auto ids = all_layers(net);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 50);
  util::Rng rng(51);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor serial = run_stack_serial(net, weights, input, ids);
  const FusedTilePlan plan = make_fused_tile_plan(net, ids, 2, 2);

  for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
    const exec::Tile in = extract_tile_input(input, plan, t);
    const exec::Tile out = run_single_tile(net, weights, in, plan, t);
    const exec::Region& r = plan.tiles[t].output_region;
    EXPECT_EQ(out.origin_x, r.x0);
    EXPECT_EQ(out.origin_y, r.y0);
    for (int c = 0; c < serial.shape().c; ++c)
      for (int y = r.y0; y < r.y1; ++y)
        for (int x = r.x0; x < r.x1; ++x)
          ASSERT_EQ(out.data.at(c, y - r.y0, x - r.x0), serial.at(c, y, x));
  }
}

TEST(VsmExecutor, IntraOpPoolIsBitwiseIdenticalToSerial) {
  // Every tile's convs sit above the kernels' parallelism threshold, so with
  // an OpContext their GEMMs split across the pool — as on a d3_node worker,
  // where the tile lanes and the kernels share one pool (nested parallel_for).
  const dnn::Network net = dnn::zoo::conv_stack(
      "pooled", Shape{16, 24, 24},
      {{64, Window{3, 3, 1, 1, 1, 1}}, {96, Window{3, 3, 1, 1, 1, 1}}});
  const auto ids = all_layers(net);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 53);
  util::Rng rng(54);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const FusedTilePlan plan = make_fused_tile_plan(net, ids, 2, 2);

  runtime::ThreadPool pool(4);
  std::atomic<std::size_t> dispatches{0};
  const exec::ParallelFor parallel = [&](std::size_t n,
                                         const std::function<void(std::size_t)>& body) {
    ++dispatches;
    pool.parallel_for(n, body);
  };
  const exec::OpContext ctx{nullptr, &parallel};

  for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
    const exec::Tile in = extract_tile_input(input, plan, t);
    const exec::Tile serial = run_single_tile(net, weights, in, plan, t);
    const exec::Tile pooled = run_single_tile(net, weights, in, plan, t, ctx);
    expect_bitwise_equal(pooled.data, serial.data);
    EXPECT_EQ(pooled.origin_x, serial.origin_x);
    EXPECT_EQ(pooled.origin_y, serial.origin_y);
  }
  EXPECT_GE(dispatches.load(), plan.num_tiles() * 2);  // both convs, every tile

  const dnn::Tensor serial = run_fused_tiles(net, weights, input, plan);
  expect_bitwise_equal(run_fused_tiles(net, weights, input, plan, {}, ctx), serial);
  // Tile lanes on the same pool as the kernels: nested, still bitwise.
  expect_bitwise_equal(run_fused_tiles(net, weights, input, plan, parallel, ctx), serial);
  expect_bitwise_equal(serial, run_stack_serial(net, weights, input, ids));
}

TEST(VsmExecutor, RejectsWrongInputShape) {
  const dnn::Network net = dnn::zoo::conv_stack(
      "bad", Shape{3, 16, 16}, {{4, Window{3, 3, 1, 1, 1, 1}}});
  const FusedTilePlan plan = make_fused_tile_plan(net, all_layers(net), 2, 2);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 52);
  EXPECT_THROW(run_fused_tiles(net, weights, dnn::Tensor(Shape{3, 8, 8}), plan),
               std::invalid_argument);
}

}  // namespace
}  // namespace d3::core
