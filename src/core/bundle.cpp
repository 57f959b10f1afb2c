#include "core/bundle.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "core/plan_io.h"
#include "rpc/wire.h"

namespace d3::core {

DeploymentBundle compile_bundle(const dnn::Network& net, const exec::WeightStore& weights,
                                std::span<const std::uint8_t> plan_bytes,
                                const std::string& node, std::uint32_t vsm_workers,
                                std::uint64_t weights_hash, bool elided) {
  DeploymentBundle bundle;
  bundle.node_name = node;
  bundle.model_name = net.name();
  bundle.vsm_workers = vsm_workers;
  bundle.weights_hash = weights_hash;
  bundle.plan_bytes.assign(plan_bytes.begin(), plan_bytes.end());
  if (!elided)
    bundle.shard_bytes = rpc::encode_weight_shard(
        weights, net,
        exec::WeightStore::layers_for_node(parse_plan_binary(plan_bytes, net), node));
  return bundle;
}

std::vector<std::uint8_t> encode_bundle(const DeploymentBundle& bundle) {
  rpc::WireWriter w;
  w.u32(rpc::kBundleMagic);
  w.u16(rpc::kWireVersion);
  w.str(bundle.node_name);
  w.str(bundle.model_name);
  w.u32(bundle.vsm_workers);
  w.u64(bundle.weights_hash);
  w.blob(bundle.plan_bytes);
  w.blob(bundle.shard_bytes);
  w.blob(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bundle.book_text.data()),
      bundle.book_text.size()));
  w.u64(rpc::fnv1a(w.buffer()));
  return w.take();
}

DeploymentBundle decode_bundle(std::span<const std::uint8_t> bytes) {
  // The trailing checksum covers every byte before it; verify before trusting
  // any field so a corrupted length prefix cannot route around the check.
  if (bytes.size() < 8) throw rpc::WireError("bundle: truncated (no content hash)");
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  rpc::WireReader trailer(bytes.subspan(bytes.size() - 8));
  if (trailer.u64() != rpc::fnv1a(body))
    throw rpc::WireError("bundle: content hash mismatch (corrupt or truncated file)");

  rpc::WireReader r(body);
  if (r.u32() != rpc::kBundleMagic) throw rpc::WireError("bundle: bad magic");
  const std::uint16_t version = r.u16();
  if (version != rpc::kWireVersion)
    throw rpc::WireError("bundle: unsupported wire version " + std::to_string(version));
  DeploymentBundle bundle;
  bundle.node_name = r.str();
  bundle.model_name = r.str();
  bundle.vsm_workers = r.u32();
  bundle.weights_hash = r.u64();
  bundle.plan_bytes = r.blob();
  bundle.shard_bytes = r.blob();
  const std::vector<std::uint8_t> book = r.blob();
  bundle.book_text.assign(book.begin(), book.end());
  r.expect_end("bundle");
  return bundle;
}

std::size_t write_bundle_file(const std::string& path, const DeploymentBundle& bundle) {
  const std::vector<std::uint8_t> bytes = encode_bundle(bundle);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("bundle: cannot create '" + tmp + "'");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      throw std::runtime_error("bundle: write to '" + tmp + "' failed");
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability before visibility: the rename must never expose a file whose
  // bytes are still in flight.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("bundle: fsync of '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("bundle: rename to '" + path + "' failed");
  }
  return bytes.size();
}

DeploymentBundle load_bundle_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("bundle: cannot open '" + path + "'");
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("bundle: cannot stat '" + path + "'");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw rpc::WireError("bundle: '" + path + "' is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the pages; the fd is no longer needed
  if (map == MAP_FAILED) throw std::runtime_error("bundle: mmap of '" + path + "' failed");
  try {
    DeploymentBundle bundle =
        decode_bundle({static_cast<const std::uint8_t*>(map), size});
    ::munmap(map, size);
    return bundle;
  } catch (...) {
    ::munmap(map, size);
    throw;
  }
}

}  // namespace d3::core
