// d3_node: one computation node of the distributed online engine as its own OS
// process (the per-tier machines of paper Fig. 2).
//
// Two modes:
//
//   d3_node --connect <host> <port> [--crash-after <frames>]
//
// spawned by the coordinator (rpc::WorkerProcess), dials back over TCP and
// serves the node protocol (rpc/node_service.h) until the coordinator hangs
// up: receive its deployment bundle (model name + plan + its weight shard),
// hold per-request tensor slots, run layers and VSM stacks on demand.
//
//   d3_node --listen <port> [--crash-after <frames>]
//
// binds <port> (0 = ephemeral), prints "PORT <port>" on stdout, and serves
// coordinator connections accepted from it — concurrently, with one
// persistent node state across them. A coordinator that dies is survived: its
// successor dials the same port, replays kConfig (idempotent), re-links the
// peer channels and finds the per-request slots intact. When two coordinators
// are connected at once (a failover race), the fencing epoch in kConfig
// decides: the higher incarnation owns the node and every frame from the lower
// one is answered kFenced. This is the worker side of coordinator failover
// (rpc::ListenWorkerProcess spawns it in tests).
//
//   d3_node --book <file> <name> [--crash-after <frames>]
//
// the zero-human deployment form of --listen: looks `name` up in the
// [workers] section of the address book (runtime/address_book.h), binds that
// entry's host:port, and serves exactly like --listen. The whole deployment —
// workers, the active coordinator's beacon, and the standbys — boots from the
// one shared file with no spawn-time port plumbing.
//
//   d3_node --bundle <file> <name> [--crash-after <frames>]
//
// the AOT boot form: mmap-loads the d3c deployment bundle at <file> — plan,
// this node's weight shard, and the embedded address book — verifies its
// checksum, installs it exactly as it would a kConfig's, and listens at
// <name>'s entry in the bundle's [workers] section. No coordinator round-trip
// ships the weights: a coordinator started with --elide-weights sends the
// bundle without its shard (O(1) instead of O(tier)), and a hash disagreement
// is answered kBundleMismatch before any state mutation. `--bundle <file>
// <name>` also composes with --listen/--connect/--book as a trailing flag (the
// spawn-time port still wins; the bundle supplies the configuration).
//
// --crash-after N makes the process exit abruptly (no reply) on the (N+1)th
// coordinator frame — a deterministic, scriptable stand-in for a SIGKILL at an
// exact protocol point, used by the fault-injection tests. Exit code 0 on
// clean shutdown, 1 on any protocol or socket failure.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/bundle.h"
#include "rpc/node_service.h"
#include "rpc/socket.h"
#include "runtime/address_book.h"

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s --connect <host> <port> [--crash-after <frames>] [--service-ms <ms>]\n"
                 "       %s --listen <port> [--crash-after <frames>] [--service-ms <ms>]\n"
                 "       %s --book <file> <name> [--crash-after <frames>] [--service-ms <ms>]\n"
                 "       %s --bundle <file> <name> [--crash-after <frames>] [--service-ms <ms>]\n"
                 "       (--bundle <file> <name> also composes with the other modes)\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return 2;
  };
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  try {
    d3::rpc::ServeOptions options;
    std::optional<d3::core::DeploymentBundle> bundle;
    const auto load_bundle = [&](const std::string& file, const std::string& name) {
      bundle = d3::core::load_bundle_file(file);
      if (bundle->node_name != name)
        throw std::invalid_argument("bundle '" + file + "' was compiled for node '" +
                                    bundle->node_name + "', not '" + name + "'");
      options.bundle = &*bundle;
    };
    int arg = mode == "--listen" ? 3 : 4;
    if (mode != "--listen" && argc < 4) return usage();
    while (arg < argc) {
      if (std::string(argv[arg]) == "--crash-after" && arg + 1 < argc) {
        options.crash_after_frames = std::stoull(argv[arg + 1]);
        arg += 2;
      } else if (std::string(argv[arg]) == "--service-ms" && arg + 1 < argc) {
        // Emulated per-kRunLayer/kRunStack/kRunTile service latency (overlap benches).
        options.service_seconds = std::stod(argv[arg + 1]) / 1e3;
        arg += 2;
      } else if (std::string(argv[arg]) == "--bundle" && arg + 2 < argc) {
        // AOT boot riding another mode (rpc::ListenWorkerProcess spawns
        // "--listen 0 --bundle <file> <name>" in the bundle-boot tests).
        load_bundle(argv[arg + 1], argv[arg + 2]);
        arg += 3;
      } else {
        return usage();
      }
    }
    if (mode == "--connect") {
      const std::string host = argv[2];
      const unsigned long port = std::stoul(argv[3]);
      if (port == 0 || port > 65535) throw d3::rpc::SocketError("port out of range");
      d3::rpc::Socket socket =
          d3::rpc::tcp_connect(host, static_cast<std::uint16_t>(port));
      d3::rpc::serve_node(socket.fd(), options);
      return 0;
    }
    if (mode == "--listen") {
      const unsigned long requested = std::stoul(argv[2]);
      if (requested > 65535) throw d3::rpc::SocketError("port out of range");
      std::uint16_t port = static_cast<std::uint16_t>(requested);
      d3::rpc::Socket listener = d3::rpc::tcp_listen(port);
      // The bound (possibly ephemeral) port is the spawner's handle to this
      // worker; flushed so a pipe reader sees it before the first accept.
      std::printf("PORT %u\n", static_cast<unsigned>(port));
      std::fflush(stdout);
      d3::rpc::serve_listen_node(listener, options);
      return 0;
    }
    if (mode == "--bundle") {
      load_bundle(argv[2], argv[3]);
      // The bundle embeds the deployment's address book: this node's listen
      // endpoint comes from its own [workers] entry, no flag plumbing.
      const d3::runtime::AddressBook book =
          d3::runtime::AddressBook::parse(bundle->book_text);
      const d3::runtime::Endpoint* self = nullptr;
      for (const d3::runtime::Endpoint& worker : book.workers())
        if (worker.name == bundle->node_name) self = &worker;
      if (self == nullptr)
        throw std::invalid_argument("\"" + bundle->node_name +
                                    "\" is not in the bundle's [workers] section");
      std::uint16_t port = self->port;
      d3::rpc::Socket listener = d3::rpc::tcp_listen_on(self->host, port);
      std::printf("PORT %u\n", static_cast<unsigned>(port));
      std::fflush(stdout);
      d3::rpc::serve_listen_node(listener, options);
      return 0;
    }
    if (mode == "--book") {
      const d3::runtime::AddressBook book = d3::runtime::AddressBook::load(argv[2]);
      const std::string name = argv[3];
      const d3::runtime::Endpoint* self = nullptr;
      for (const d3::runtime::Endpoint& worker : book.workers())
        if (worker.name == name) self = &worker;
      if (self == nullptr)
        throw std::invalid_argument("\"" + name + "\" is not in the [workers] section");
      std::uint16_t port = self->port;
      d3::rpc::Socket listener = d3::rpc::tcp_listen_on(self->host, port);
      std::printf("PORT %u\n", static_cast<unsigned>(port));
      std::fflush(stdout);
      d3::rpc::serve_listen_node(listener, options);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "d3_node: %s\n", e.what());
    return 1;
  }
}
