// Fast binary serialization of labelled CSR matrices.
//
// Layout: magic "TPA2", little-endian header (rows, cols, nnz, label count),
// raw arrays, then a WideHash digest of everything after the magic.  Used
// by the bench harness to cache generated datasets between runs, and as the
// per-shard chunk format of the out-of-core store (store/format.hpp): every
// shard file is a self-checksummed TPA2 slice, so the whole store machinery
// reads and writes through this one module.  The retired TPA1 layout (the
// same arrays under a byte-serial FNV-1a digest) is refused with
// UnsupportedFormatError; re-shard or regenerate such files.
//
// Both directions stream: the writer pushes each array straight to the
// output while folding it into a running digest (O(1) heap beyond the
// caller's arrays), and the reader checksums as it fills the destination
// vectors.  Readers check the header against the bytes actually available,
// with overflow-checked arithmetic, before they allocate anything (a stream
// that cannot seek allocates only as its bytes arrive), so an inflated
// length field is a clean std::runtime_error, never a giant allocation.
// read_binary_header() peeks at the shape without touching the payload —
// the store manifest validates shard files this way.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sparse/io_svmlight.hpp"

namespace tpa::sparse {

/// Incrementally updatable FNV-1a 64-bit accumulator: feed any number of
/// byte ranges via update(), read the running digest at any point.  Chaining
/// update(a); update(b) equals one update over the concatenation, so
/// streaming writers can checksum without buffering the checksummed region.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  constexpr explicit Fnv1a(std::uint64_t seed = kOffsetBasis) noexcept
      : hash_(seed) {}

  void update(const void* data, std::size_t bytes) noexcept;
  std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_;
};

/// One-shot FNV-1a 64-bit over a byte range (wraps Fnv1a).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = Fnv1a::kOffsetBasis);

/// Word-parallel 64-bit hash, the digest of the TPA2 image.  The input is
/// cut into 8-byte little-endian words; word k is mixed into lane k mod 4
/// with an xxHash64-style round, lane = rotl(lane + w * P2, 31) * P1, so
/// four independent multiply chains run side by side.  digest() merges the
/// four lanes and the byte length into one state, one round each, then the
/// trailing (< 8) bytes one by one, and ends with an avalanche.  Chained
/// updates equal one update over the concatenation.
///
/// Detection guarantee: every step is a bijection of the input it mixes in
/// for a fixed state (odd multiplies, an add, a rotation, an xor), and
/// each word, lane, the length and each tail byte enters exactly once; so a
/// change confined to one 8-byte word, or to one tail byte, always changes
/// the digest.  The rotation carries each word's high bits down into the
/// low bits of the next multiply, so no bit stays in a fixed position
/// through the chain (plain FNV-1a lanes keep bit 63 of every word on bit
/// 63: two flipped sign bits would cancel).
class WideHash {
 public:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kBlockBytes = kLanes * sizeof(std::uint64_t);

  WideHash() noexcept;
  void update(const void* data, std::size_t bytes) noexcept;
  std::uint64_t digest() const noexcept;

 private:
  std::array<std::uint64_t, kLanes> lanes_;
  std::array<unsigned char, kBlockBytes> pending_{};  // partial block
  std::size_t pending_bytes_ = 0;
  std::uint64_t length_ = 0;
};

/// A well-formed image of a retired format version (TPA1).  Its data may
/// be intact, but this build does not read it: re-shard the store (or
/// regenerate the cache file) to get a TPA2 image.
class UnsupportedFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The fixed-size header following the 4-byte magic.  Field order matches
/// the on-disk layout exactly.
struct BinaryHeader {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t labels = 0;

  /// Bytes of the arrays following the header (offsets/indices/values/
  /// labels), excluding magic, header and trailing checksum.  Saturates at
  /// UINT64_MAX instead of wrapping, so an inflated field can never pass a
  /// size comparison.
  std::uint64_t payload_bytes() const noexcept;
  /// Total file size implied by the header (saturating likewise).
  std::uint64_t file_bytes() const noexcept;
};

/// Serializes `data` to a binary stream; throws std::runtime_error on IO
/// failure.  Arrays stream directly to `out` with the checksum accumulated
/// incrementally — nothing beyond the header is buffered.
void write_binary(std::ostream& out, const LabeledMatrix& data);
void write_binary_file(const std::string& path, const LabeledMatrix& data);

/// Deserializes; every failure (truncation, bad magic, a header that does
/// not fit the available bytes, labels != rows, checksum mismatch, an
/// invalid CSR structure) is a std::runtime_error, UnsupportedFormatError
/// for a TPA1 image.  A seekable stream is measured first and every array
/// sized up front; a stream that cannot seek (a pipe) grows each array as
/// its bytes arrive, so an inflated length still fails as truncation, not
/// in allocation.  `recycle` lends its arrays' capacity:
/// the result is decoded into them, so reading a stream of similar-shaped
/// images allocates nothing in steady state.
LabeledMatrix read_binary(std::istream& in, LabeledMatrix recycle = {});
LabeledMatrix read_binary_file(const std::string& path);
/// Deserializes from an in-memory image (e.g. a memory-mapped shard file);
/// same validation as the stream reader, and the image must be exactly
/// the size its header declares.
LabeledMatrix read_binary(const void* data, std::size_t size,
                          LabeledMatrix recycle = {});

/// Reads magic + header only, leaving the stream positioned at the payload.
/// Throws on bad magic or truncation.  Cheap shape peek: the payload is
/// neither read nor checksummed.
BinaryHeader read_binary_header(std::istream& in);
BinaryHeader read_binary_header_file(const std::string& path);
BinaryHeader read_binary_header(const void* data, std::size_t size);

}  // namespace tpa::sparse
