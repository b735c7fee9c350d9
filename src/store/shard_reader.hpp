// Validated shard access for the out-of-core store.
//
// ShardReader resolves a manifest's shard table against the filesystem and
// deserialises individual shards on demand, in one of two modes behind the
// same interface:
//
//   kBuffered — plain double-buffered stream reads (sparse::read_binary on
//     an ifstream): the OS page cache is the only cache, working-set cost
//     is one shard's arrays.  The portable default.
//   kMmap     — the shard file is mapped read-only and decoded from the
//     mapping (sparse::read_binary on the image), then unmapped.  Saves
//     one user-space copy of the raw bytes on hosts with mmap; silently
//     falls back to kBuffered where POSIX mmap is unavailable.
//
// Every read validates: manifest-declared file size vs. the actual file,
// header shape vs. the manifest row/nnz entry, the shard's trailing TPA2
// digest over the full image, and the CSR structure (both inside
// read_binary).  A shard that fails any check throws std::runtime_error
// naming the shard and its path (sparse::UnsupportedFormatError, same
// context, for a TPA1 shard) — a truncated or corrupted shard can never
// reach a solver.  The decoded arrays go into `recycle`'s capacity.  Reads
// are thread-safe (no shared mutable state), which is what lets the
// prefetch pipeline pull shard k+1 while the solver owns shard k.  Bytes
// read land on the "store.bytes_read" counter under a "store/load" span.
#pragma once

#include <cstddef>
#include <string>

#include "store/format.hpp"

namespace tpa::store {

enum class ReadMode { kBuffered, kMmap };

/// Parses "buffered" | "mmap"; throws std::invalid_argument otherwise.
ReadMode parse_read_mode(const std::string& name);
const char* read_mode_name(ReadMode mode);

class ShardReader {
 public:
  /// `manifest_dir` anchors the manifest's relative shard paths.
  ShardReader(Manifest manifest, std::string manifest_dir,
              ReadMode mode = ReadMode::kBuffered);

  /// Opens a store by manifest path (directory derived from it).
  static ShardReader open(const std::string& manifest_path,
                          ReadMode mode = ReadMode::kBuffered);

  const Manifest& manifest() const noexcept { return manifest_; }
  ReadMode mode() const noexcept { return mode_; }
  std::size_t num_shards() const noexcept { return manifest_.shards.size(); }

  /// Reads, validates and deserialises shard `i` into `recycle`'s arrays.
  /// Thread-safe.
  sparse::LabeledMatrix read_shard(std::size_t i,
                                   sparse::LabeledMatrix recycle = {}) const;

  /// Absolute path of shard `i`'s file.
  std::string shard_path(std::size_t i) const;

 private:
  Manifest manifest_;
  std::string dir_;
  ReadMode mode_;
};

}  // namespace tpa::store
