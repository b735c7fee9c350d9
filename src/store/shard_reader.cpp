#include "store/shard_reader.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TPA_STORE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TPA_STORE_HAS_MMAP 0
#endif

namespace tpa::store {
namespace {

[[noreturn]] void fail(std::size_t shard, const std::string& what) {
  throw std::runtime_error("store shard " + std::to_string(shard) + ": " +
                           what);
}

#if TPA_STORE_HAS_MMAP
// RAII fd + mapping so validation throws unwind cleanly.
struct Mapping {
  int fd = -1;
  void* data = MAP_FAILED;
  std::size_t size = 0;

  explicit Mapping(const std::string& path) {
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot stat " + path);
    }
    size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {  // nothing to map; the decoder rejects the image
      data = nullptr;
      return;
    }
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("cannot mmap " + path);
    }
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (data != MAP_FAILED && size > 0) ::munmap(data, size);
    if (fd >= 0) ::close(fd);
  }
};
#endif

}  // namespace

ReadMode parse_read_mode(const std::string& name) {
  if (name == "buffered") return ReadMode::kBuffered;
  if (name == "mmap") return ReadMode::kMmap;
  throw std::invalid_argument("unknown store read mode '" + name +
                              "' (buffered | mmap)");
}

const char* read_mode_name(ReadMode mode) {
  return mode == ReadMode::kBuffered ? "buffered" : "mmap";
}

ShardReader::ShardReader(Manifest manifest, std::string manifest_dir,
                         ReadMode mode)
    : manifest_(std::move(manifest)), dir_(std::move(manifest_dir)),
      mode_(mode) {
  if (dir_.empty()) dir_ = ".";
}

ShardReader ShardReader::open(const std::string& manifest_path,
                              ReadMode mode) {
  Manifest manifest = read_manifest_file(manifest_path);
  std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  return ShardReader(std::move(manifest), std::move(dir), mode);
}

std::string ShardReader::shard_path(std::size_t i) const {
  return dir_ + "/" + manifest_.shards.at(i).file;
}

sparse::LabeledMatrix ShardReader::read_shard(
    std::size_t i, sparse::LabeledMatrix recycle) const {
  const ShardInfo& info = manifest_.shards.at(i);
  const std::string path = shard_path(i);
  obs::TraceSpan load("store/load", obs::kCurrentThread,
                      static_cast<std::int64_t>(info.bytes));

  std::error_code ec;
  const auto actual = std::filesystem::file_size(path, ec);
  if (ec) fail(i, "cannot stat " + path);
  if (actual != info.bytes) {
    fail(i, "file size " + std::to_string(actual) +
                " does not match manifest (" + std::to_string(info.bytes) +
                " bytes) — truncated or stale shard");
  }

  // The sparse decoder knows nothing about which file it is decoding;
  // re-throw its errors with enough context to find the damage on disk.
  // The digest covers bytes [4, size-8) — everything between the magic
  // and the stored digest.  A retired-format shard keeps its type, so
  // callers can tell "re-shard" apart from "damaged".
  const auto decode = [&](auto&& read) -> sparse::LabeledMatrix {
    const std::string digest_at =
        std::to_string(info.bytes >= 8 ? info.bytes - 8 : 0);
    const auto where = [&](const std::exception& error) {
      return "store shard " + std::to_string(i) + ": " + error.what() +
             " in " + path + " (payload bytes [4, " + digest_at +
             "), stored digest at byte " + digest_at + ")";
    };
    try {
      return read();
    } catch (const sparse::UnsupportedFormatError& error) {
      throw sparse::UnsupportedFormatError(where(error));
    } catch (const std::runtime_error& error) {
      throw std::runtime_error(where(error));
    }
  };
  sparse::LabeledMatrix data = [&]() -> sparse::LabeledMatrix {
#if TPA_STORE_HAS_MMAP
    if (mode_ == ReadMode::kMmap) {
      return decode([&] {
        const Mapping map(path);
        return sparse::read_binary(map.data, map.size, std::move(recycle));
      });
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(i, "cannot open " + path);
    return decode([&] { return sparse::read_binary(in, std::move(recycle)); });
  }();

  if (data.matrix.rows() != info.rows || data.matrix.nnz() != info.nnz ||
      data.matrix.cols() != manifest_.cols) {
    fail(i, "shard shape does not match the manifest entry");
  }
  obs::metrics().counter("store.bytes_read").add(info.bytes);
  return data;
}

}  // namespace tpa::store
