// d3_coordinator: the coordinator side of the zero-human failover deployment.
// Everything — worker endpoints, the beacon, the standby roster — comes from
// one shared address book (runtime/address_book.h); the workers are expected
// to be running `d3_node --book` already.
//
// Two modes:
//
//   d3_coordinator --active --book <file> --model <zoo-name> --plan <file>
//                  --journal <file> [--epoch <n>] [--seed <n>]
//                  [--requests <n>] [--elide-weights]
//
// the active coordinator: binds the [coordinator] beacon endpoint, dials
// every [workers] entry at fencing epoch <n> (default 1) and links the tier
// nodes' peer channels (runtime::dial_deployment), journals each request,
// runs <n> seeded random inferences (default 1) and prints one
// "REQUEST <id> FNV1A <hash>" line per completed output. The beacon answers
// standby kPing probes (kPong + epoch) and kJournalSync pulls for the whole
// run; killing this process mid-request is exactly the failure the standby
// mode recovers from.
//
//   d3_coordinator --standby --book <file> --model <zoo-name> --plan <file>
//                  --journal <file> [--epoch-hint <n>] [--seed <n>]
//                  [--mirror] [--elide-weights]
//
// a standby: monitors the beacon and, once the miss threshold trips, promotes
// itself unattended — dials the workers the same way at a higher epoch,
// which fences the dead incarnation out, loads the journal (the shared path,
// or the --mirror copy it kept fresh over kJournalSync), resumes every
// mid-flight request over the peer channels, and prints the same
// "REQUEST <id> FNV1A <hash>" lines the active would have. The seeds and plan
// must match the active's: outputs are bitwise-deterministic, so matching
// hash lines across the two processes *are* the lossless-failover check.
//
// The plan file is the text deployment plan of core/plan_io.h.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "runtime/address_book.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "runtime/request_journal.h"
#include "util/rng.h"

namespace {

std::uint64_t fnv1a(const d3::dnn::Tensor& tensor) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const float value = tensor[i];
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t b = 0; b < sizeof(float); ++b) {
      hash ^= bytes[b];
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string read_text_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::invalid_argument("cannot read \"" + path + "\"");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s --active  --book <file> --model <zoo-name> --plan <file> --journal "
                 "<file> [--epoch <n>] [--seed <n>] [--requests <n>] [--elide-weights]\n"
                 "       %s --standby --book <file> --model <zoo-name> --plan <file> --journal "
                 "<file> [--epoch-hint <n>] [--seed <n>] [--mirror] [--elide-weights]\n",
                 argv[0], argv[0]);
    return 2;
  };
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "--active" && mode != "--standby") return usage();

  std::map<std::string, std::string> flags;
  bool mirror = false;
  bool elide_weights = false;
  for (int arg = 2; arg < argc; ++arg) {
    const std::string flag = argv[arg];
    if (flag == "--mirror") {
      mirror = true;
    } else if (flag == "--elide-weights") {
      // Workers booted from d3c bundles already hold their weight shard:
      // kConfig ships each bundle without it (O(1) instead of O(tier)).
      // Version skew fails loudly as rpc::BundleMismatch before any state
      // mutation — recompile the bundles with d3c, or drop this flag.
      elide_weights = true;
    } else if (arg + 1 < argc) {
      flags[flag] = argv[++arg];
    } else {
      return usage();
    }
  }
  for (const char* required : {"--book", "--model", "--plan", "--journal"})
    if (flags.count(required) == 0) return usage();

  try {
    const d3::runtime::AddressBook book = d3::runtime::AddressBook::load(flags["--book"]);
    const d3::dnn::Network net = d3::dnn::zoo::by_name(flags["--model"]);
    const std::uint64_t seed = flags.count("--seed") ? std::stoull(flags["--seed"]) : 1;
    const d3::exec::WeightStore weights = d3::exec::WeightStore::random_for(net, seed);
    const d3::core::SerializablePlan plan =
        d3::core::parse_plan(read_text_file(flags["--plan"]), net);
    const std::string journal_path = flags["--journal"];

    if (mode == "--active") {
      if (!book.coordinator().has_value())
        throw std::invalid_argument("--active needs a [coordinator] beacon entry in the book");
      const std::uint64_t epoch = flags.count("--epoch") ? std::stoull(flags["--epoch"]) : 1;
      const std::uint64_t requests =
          flags.count("--requests") ? std::stoull(flags["--requests"]) : 1;

      const d3::runtime::CoordinatorBeacon beacon(epoch, journal_path,
                                                  book.coordinator()->host,
                                                  book.coordinator()->port);
      d3::runtime::OnlineEngine::Options options;
      options.transport =
          d3::runtime::dial_deployment(book, epoch, elide_weights, net, weights, plan);
      options.journal = std::make_shared<d3::runtime::RequestJournal>(journal_path);
      const d3::runtime::OnlineEngine engine(net, weights, plan.assignment, plan.vsm, options);

      d3::util::Rng rng(seed + 1);
      for (std::uint64_t r = 0; r < requests; ++r) {
        const d3::dnn::Tensor input = d3::exec::random_tensor(net.input_shape(), rng);
        const d3::runtime::InferenceResult result = engine.infer(input);
        std::printf("REQUEST %llu FNV1A %016llx\n",
                    static_cast<unsigned long long>(r + 1),
                    static_cast<unsigned long long>(fnv1a(result.output)));
        std::fflush(stdout);
      }
      return 0;
    }

    // --standby
    d3::runtime::StandbyCoordinator::Options options;
    options.book = book;
    options.journal_path = journal_path;
    options.mirror_journal = mirror;
    options.elide_weights = elide_weights;
    options.epoch_hint =
        flags.count("--epoch-hint") ? std::stoull(flags["--epoch-hint"]) : 0;
    d3::runtime::StandbyCoordinator standby(net, weights, plan.assignment, plan.vsm,
                                            std::move(options));
    standby.start();
    while (!standby.wait_promoted(std::chrono::milliseconds(1000))) {
    }
    std::printf("PROMOTED EPOCH %llu\n",
                static_cast<unsigned long long>(standby.epoch()));
    for (const d3::runtime::ResumedRequest& r : standby.resumed())
      std::printf("REQUEST %llu FNV1A %016llx\n",
                  static_cast<unsigned long long>(r.rpc_request),
                  static_cast<unsigned long long>(fnv1a(r.result.output)));
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "d3_coordinator: %s\n", e.what());
    return 1;
  }
}
