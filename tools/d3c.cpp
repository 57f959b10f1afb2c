// d3c: the deployment-bundle compiler — the offline half of AOT node boot.
//
//   d3c --model <zoo-name> --book <file> --out <dir>
//       [--testbed paper|table2] [--condition wifi|lte|5g|optical]
//       [--edge-nodes <n>] [--seed <n>]
//       [--plan <file>] [--emit-plan <file>]
//
// Runs the offline partition framework (HPA + VSM, core/d3.h) for the chosen
// testbed and network condition — or takes a ready text plan via --plan — and
// emits ONE versioned, checksummed binary bundle per [workers] entry of the
// address book (core::compile_bundle — the same bundle a coordinator's kConfig
// carries): the serialized plan, the weight shard covering exactly the layers
// that node executes (parameterless elsewhere), and the address book itself.
// `d3_node --bundle <dir>/<name>.d3b <name>` then boots fully configured with
// no coordinator round-trip; a coordinator started with --elide-weights ships
// each bundle without its shard (O(1) instead of O(tier)) and any version skew
// is answered kBundleMismatch before state mutation.
//
// The weights are WeightStore::random_for(net, seed) — the same deterministic
// store d3_coordinator builds from the same --seed, so the rpc::weights_hash
// embedded in every bundle matches the hash the coordinator sends.
// --emit-plan writes the plan as the text form of core/plan_io.h so the
// coordinator can be pointed at the exact plan the bundles were compiled for.
//
// Prints one "BUNDLE <node> <path> <bytes>" line per bundle plus a trailing
// "WEIGHTS <fnv1a hex>" line. Exit 0 on success, 1 on any failure, 2 on usage.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bundle.h"
#include "core/d3.h"
#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/weights.h"
#include "net/conditions.h"
#include "profile/node_spec.h"
#include "rpc/wire.h"
#include "runtime/address_book.h"

namespace {

std::string read_text_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::invalid_argument("cannot read \"" + path + "\"");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

d3::net::NetworkCondition condition_by_name(const std::string& name) {
  if (name == "wifi") return d3::net::wifi();
  if (name == "lte") return d3::net::lte_4g();
  if (name == "5g") return d3::net::nr_5g();
  if (name == "optical") return d3::net::optical();
  throw std::invalid_argument("unknown condition \"" + name +
                              "\" (wifi|lte|5g|optical)");
}

d3::profile::TierNodes testbed_by_name(const std::string& name) {
  if (name == "paper") return d3::profile::paper_testbed();
  if (name == "table2") return d3::profile::table2_testbed();
  throw std::invalid_argument("unknown testbed \"" + name + "\" (paper|table2)");
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s --model <zoo-name> --book <file> --out <dir>\n"
                 "          [--testbed paper|table2] [--condition wifi|lte|5g|optical]\n"
                 "          [--edge-nodes <n>] [--seed <n>]\n"
                 "          [--plan <file>] [--emit-plan <file>]\n",
                 argv[0]);
    return 2;
  };
  std::map<std::string, std::string> flags;
  for (int arg = 1; arg < argc; ++arg) {
    if (arg + 1 >= argc) return usage();
    flags[argv[arg]] = argv[arg + 1];
    ++arg;
  }
  for (const char* required : {"--model", "--book", "--out"})
    if (flags.count(required) == 0) return usage();

  try {
    const d3::dnn::Network net = d3::dnn::zoo::by_name(flags["--model"]);
    const std::string book_text = read_text_file(flags["--book"]);
    const d3::runtime::AddressBook book = d3::runtime::AddressBook::parse(book_text);
    if (book.workers().empty())
      throw std::invalid_argument("address book has no [workers] entries");
    const std::uint64_t seed = flags.count("--seed") ? std::stoull(flags["--seed"]) : 1;

    // The plan: either the exact text plan the deployment already uses, or a
    // fresh offline-framework run for the requested testbed and condition.
    d3::core::SerializablePlan plan;
    if (flags.count("--plan")) {
      plan = d3::core::parse_plan(read_text_file(flags["--plan"]), net);
    } else {
      // VSM fan-out width is dictated by the deployment itself: every
      // [workers] entry beyond the three tier heads is an edge tile worker.
      int edge_nodes = 1;
      for (const d3::runtime::Endpoint& worker : book.workers())
        if (worker.name != "device0" && worker.name != "cloud0" &&
            worker.name.compare(0, 4, "edge") == 0)
          ++edge_nodes;
      if (flags.count("--edge-nodes")) edge_nodes = std::stoi(flags["--edge-nodes"]);
      d3::core::D3Options options;
      options.edge_nodes = edge_nodes;
      const d3::core::D3System system(
          net, testbed_by_name(flags.count("--testbed") ? flags["--testbed"] : "paper"),
          options);
      const d3::core::DeploymentPlan deployment = system.plan(condition_by_name(
          flags.count("--condition") ? flags["--condition"] : "wifi"));
      plan = d3::core::SerializablePlan{net.name(), deployment.assignment,
                                        deployment.vsm};
    }
    const std::vector<std::uint8_t> plan_bytes = d3::core::serialize_plan_binary(plan);

    if (flags.count("--emit-plan")) {
      std::ofstream out(flags["--emit-plan"], std::ios::binary | std::ios::trunc);
      if (!out) throw std::invalid_argument("cannot write \"" + flags["--emit-plan"] + "\"");
      out << d3::core::serialize_plan(plan);
    }

    // The weights hash is the O(1) identity every bundle shares with the
    // coordinator; each bundle's shard carries only the layers its node
    // executes.
    const d3::exec::WeightStore weights = d3::exec::WeightStore::random_for(net, seed);
    const std::uint64_t weights_hash = d3::rpc::weights_hash(weights, net);

    std::uint32_t vsm_workers = 0;
    for (const d3::runtime::Endpoint& worker : book.workers())
      if (worker.name != "device0" && worker.name != "edge0" && worker.name != "cloud0")
        ++vsm_workers;

    const std::string out_dir = flags["--out"];
    for (const d3::runtime::Endpoint& worker : book.workers()) {
      d3::core::DeploymentBundle bundle = d3::core::compile_bundle(
          net, weights, plan_bytes, worker.name, vsm_workers, weights_hash);
      bundle.book_text = book_text;
      const std::string path = out_dir + "/" + worker.name + ".d3b";
      std::printf("BUNDLE %s %s %zu\n", worker.name.c_str(), path.c_str(),
                  d3::core::write_bundle_file(path, bundle));
    }
    std::printf("WEIGHTS %016llx\n", static_cast<unsigned long long>(weights_hash));
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "d3c: %s\n", e.what());
    return 1;
  }
}
