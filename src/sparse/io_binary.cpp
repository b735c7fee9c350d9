#include "sparse/io_binary.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <vector>

namespace tpa::sparse {
namespace {

constexpr char kMagic[4] = {'T', 'P', 'A', '2'};
constexpr char kRetiredMagic[4] = {'T', 'P', 'A', '1'};
constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

// Copy and digest in cache-sized pieces, so each piece is still hot when the
// digest reads it: one pass over memory instead of two.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// The WideHash steps (xxHash64's constants).  Each is a bijection of the
// value it mixes in for a fixed accumulator.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

std::uint64_t hash_round(std::uint64_t acc, std::uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t hash_merge(std::uint64_t acc, std::uint64_t value) noexcept {
  return (acc ^ hash_round(0, value)) * kPrime1 + kPrime4;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t out;
  return __builtin_mul_overflow(a, b, &out) ? kSaturated : out;
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t out;
  return __builtin_add_overflow(a, b, &out) ? kSaturated : out;
}

void write_raw(std::ostream& out, const void* data, std::size_t bytes,
               WideHash& checksum) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw std::runtime_error("binary write failed");
  checksum.update(data, bytes);
}

void read_raw(std::istream& in, void* data, std::size_t bytes,
              WideHash& checksum) {
  auto* dst = static_cast<char*>(data);
  for (std::size_t done = 0; done < bytes;) {
    const std::size_t n = std::min(kChunkBytes, bytes - done);
    in.read(dst + done, static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n) {
      throw std::runtime_error("binary read truncated");
    }
    checksum.update(dst + done, n);
    done += n;
  }
}

void check_magic(const char* magic) {
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) return;
  if (std::memcmp(magic, kRetiredMagic, sizeof(kRetiredMagic)) == 0) {
    throw UnsupportedFormatError(
        "binary read: unsupported format TPA1 (byte-serial digest); "
        "re-shard the store or regenerate the file as TPA2");
  }
  throw std::runtime_error("binary read: bad magic");
}

// Field checks that need no byte count: the shape must fit the 32-bit
// index type and every row needs exactly one label.
void check_fields(const BinaryHeader& header) {
  constexpr std::uint64_t kMaxIndex = std::numeric_limits<Index>::max();
  if (header.rows > kMaxIndex || header.cols > kMaxIndex) {
    throw std::runtime_error("binary read: header shape exceeds 32-bit indices");
  }
  if (header.labels != header.rows) {
    throw std::runtime_error("binary read: header declares " +
                             std::to_string(header.labels) + " labels for " +
                             std::to_string(header.rows) + " rows");
  }
}

// Bytes left in `in` from its current position (the stream is restored),
// or nullopt for a stream that cannot seek (a pipe).
std::optional<std::uint64_t> bytes_remaining(std::istream& in) {
  const auto here = in.tellg();
  if (here < 0) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end < here || !in) {
    throw std::runtime_error("binary read: cannot measure the stream");
  }
  return static_cast<std::uint64_t>(end - here);
}

// Reads `count` elements into `out` (its capacity is reused).  `bounded`:
// the header was checked against the bytes available, so the array is
// sized up front.  Otherwise it grows chunk by chunk as the bytes arrive,
// and an inflated count ends in truncation at no more than twice the
// bytes the stream delivered.
template <typename T>
void read_array(std::istream& in, std::vector<T>& out, std::uint64_t count,
                bool bounded, WideHash& checksum) {
  if (bounded) {
    out.resize(count);
    read_raw(in, out.data(), out.size() * sizeof(T), checksum);
    return;
  }
  out.clear();
  while (out.size() < count) {
    const std::size_t done = out.size();
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunkBytes / sizeof(T), count - done));
    out.resize(done + n);
    read_raw(in, out.data() + done, n * sizeof(T), checksum);
  }
}

struct Arrays {
  CsrArrays csr;
  std::vector<float> labels;
};

// Sizes `recycle`'s arrays for `header` (capacity is reused; a steady-state
// resize touches no fresh pages).  Only called once the header has been
// checked against the bytes available.
Arrays arrays_for(const BinaryHeader& header, LabeledMatrix&& recycle) {
  Arrays arrays{std::move(recycle.matrix).release(),
                std::move(recycle.labels)};
  arrays.csr.row_offsets.resize(header.rows + 1);
  arrays.csr.col_indices.resize(header.nnz);
  arrays.csr.values.resize(header.nnz);
  arrays.labels.resize(header.labels);
  return arrays;
}

LabeledMatrix assemble(const BinaryHeader& header, Arrays arrays) {
  try {
    return LabeledMatrix{
        CsrMatrix(static_cast<Index>(header.rows),
                  static_cast<Index>(header.cols),
                  std::move(arrays.csr.row_offsets),
                  std::move(arrays.csr.col_indices),
                  std::move(arrays.csr.values)),
        std::move(arrays.labels)};
  } catch (const std::invalid_argument& error) {
    // A digest-valid image whose arrays are not a CSR matrix was written
    // by something other than write_binary: still a bad file, not a bug.
    throw std::runtime_error(std::string("binary read: ") + error.what());
  }
}

}  // namespace

void Fnv1a::update(const void* data, std::size_t bytes) noexcept {
  const auto* bytes_ptr = static_cast<const unsigned char*>(data);
  std::uint64_t hash = hash_;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= bytes_ptr[i];
    hash *= kPrime;
  }
  hash_ = hash;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  Fnv1a acc(seed);
  acc.update(data, bytes);
  return acc.digest();
}

WideHash::WideHash() noexcept
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void WideHash::update(const void* data, std::size_t bytes) noexcept {
  if (bytes == 0) return;  // `data` may be null (an empty array)
  const auto* p = static_cast<const unsigned char*>(data);
  length_ += bytes;
  if (pending_bytes_ > 0) {
    const std::size_t take = std::min(kBlockBytes - pending_bytes_, bytes);
    std::memcpy(pending_.data() + pending_bytes_, p, take);
    pending_bytes_ += take;
    p += take;
    bytes -= take;
    if (pending_bytes_ < kBlockBytes) return;
    pending_bytes_ = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes_[l] = hash_round(lanes_[l], load_word(pending_.data() + 8 * l));
    }
  }
  // The hot loop: four independent chains, one word each per block.
  std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
  for (; bytes >= kBlockBytes; p += kBlockBytes, bytes -= kBlockBytes) {
    a = hash_round(a, load_word(p));
    b = hash_round(b, load_word(p + 8));
    c = hash_round(c, load_word(p + 16));
    d = hash_round(d, load_word(p + 24));
  }
  lanes_ = {a, b, c, d};
  std::memcpy(pending_.data(), p, bytes);
  pending_bytes_ = bytes;
}

std::uint64_t WideHash::digest() const noexcept {
  // The pending bytes start on a block boundary: whole words go to lanes
  // 0, 1, 2 in order, the (< 8) bytes after them are the tail.
  std::array<std::uint64_t, kLanes> lanes = lanes_;
  const std::size_t words = pending_bytes_ / 8;
  for (std::size_t l = 0; l < words; ++l) {
    lanes[l] = hash_round(lanes[l], load_word(pending_.data() + 8 * l));
  }
  std::uint64_t hash = kPrime5;
  for (const std::uint64_t lane : lanes) hash = hash_merge(hash, lane);
  hash = hash_merge(hash, length_);
  for (std::size_t i = 8 * words; i < pending_bytes_; ++i) {
    hash = std::rotl(hash ^ (pending_[i] * kPrime5), 11) * kPrime1;
  }
  // Avalanche (xor-shifts and odd multiplies: a bijection).
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

std::uint64_t BinaryHeader::payload_bytes() const noexcept {
  const std::uint64_t offsets =
      saturating_mul(saturating_add(rows, 1), sizeof(Offset));
  const std::uint64_t entries =
      saturating_mul(nnz, sizeof(Index) + sizeof(Value));
  const std::uint64_t label_bytes = saturating_mul(labels, sizeof(float));
  return saturating_add(saturating_add(offsets, entries), label_bytes);
}

std::uint64_t BinaryHeader::file_bytes() const noexcept {
  return saturating_add(payload_bytes(), sizeof(kMagic) + sizeof(BinaryHeader) +
                                             sizeof(std::uint64_t));
}

void write_binary(std::ostream& out, const LabeledMatrix& data) {
  out.write(kMagic, sizeof(kMagic));
  WideHash checksum;
  const BinaryHeader header{data.matrix.rows(), data.matrix.cols(),
                            data.matrix.nnz(), data.labels.size()};
  write_raw(out, &header, sizeof(header), checksum);
  write_raw(out, data.matrix.row_offsets().data(),
            data.matrix.row_offsets().size() * sizeof(Offset), checksum);
  write_raw(out, data.matrix.col_indices().data(),
            data.matrix.col_indices().size() * sizeof(Index), checksum);
  write_raw(out, data.matrix.values().data(),
            data.matrix.values().size() * sizeof(Value), checksum);
  write_raw(out, data.labels.data(), data.labels.size() * sizeof(float),
            checksum);
  const std::uint64_t digest = checksum.digest();
  out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  if (!out) throw std::runtime_error("binary write failed");
}

void write_binary_file(const std::string& path, const LabeledMatrix& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_binary(out, data);
}

BinaryHeader read_binary_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic)) {
    throw std::runtime_error("binary read: bad magic");
  }
  check_magic(magic);
  BinaryHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(header)) {
    throw std::runtime_error("binary read truncated (header)");
  }
  check_fields(header);
  return header;
}

BinaryHeader read_binary_header_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary_header(in);
}

BinaryHeader read_binary_header(const void* data, std::size_t size) {
  if (size < sizeof(kMagic)) throw std::runtime_error("binary read: bad magic");
  check_magic(static_cast<const char*>(data));
  if (size < sizeof(kMagic) + sizeof(BinaryHeader)) {
    throw std::runtime_error("binary read truncated (header)");
  }
  BinaryHeader header;
  std::memcpy(&header, static_cast<const char*>(data) + sizeof(kMagic),
              sizeof(header));
  check_fields(header);
  return header;
}

LabeledMatrix read_binary(std::istream& in, LabeledMatrix recycle) {
  const BinaryHeader header = read_binary_header(in);
  const std::optional<std::uint64_t> available = bytes_remaining(in);
  if (available && (*available < sizeof(std::uint64_t) ||
                    header.payload_bytes() >
                        *available - sizeof(std::uint64_t))) {
    throw std::runtime_error("binary read truncated: header declares " +
                             std::to_string(header.file_bytes()) +
                             " bytes, " + std::to_string(*available) +
                             " follow the header");
  }
  const bool bounded = available.has_value();
  WideHash checksum;
  checksum.update(&header, sizeof(header));
  Arrays arrays{std::move(recycle.matrix).release(),
                std::move(recycle.labels)};
  read_array(in, arrays.csr.row_offsets, header.rows + 1, bounded, checksum);
  read_array(in, arrays.csr.col_indices, header.nnz, bounded, checksum);
  read_array(in, arrays.csr.values, header.nnz, bounded, checksum);
  read_array(in, arrays.labels, header.labels, bounded, checksum);

  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    throw std::runtime_error("binary read truncated (checksum)");
  }
  if (stored != checksum.digest()) {
    throw std::runtime_error("binary read: checksum mismatch");
  }
  return assemble(header, std::move(arrays));
}

LabeledMatrix read_binary(const void* data, std::size_t size,
                          LabeledMatrix recycle) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const BinaryHeader header = read_binary_header(data, size);
  if (header.file_bytes() != size) {
    throw std::runtime_error("binary read truncated: header declares " +
                             std::to_string(header.file_bytes()) +
                             " bytes, image has " + std::to_string(size));
  }
  WideHash checksum;
  checksum.update(bytes + sizeof(kMagic), sizeof(header));
  const unsigned char* cursor = bytes + sizeof(kMagic) + sizeof(header);
  const auto take = [&](void* dst, std::size_t n) {
    auto* out = static_cast<unsigned char*>(dst);
    for (std::size_t done = 0; done < n;) {
      const std::size_t piece = std::min(kChunkBytes, n - done);
      std::memcpy(out + done, cursor, piece);
      checksum.update(cursor, piece);
      cursor += piece;
      done += piece;
    }
  };
  Arrays arrays = arrays_for(header, std::move(recycle));
  take(arrays.csr.row_offsets.data(),
       arrays.csr.row_offsets.size() * sizeof(Offset));
  take(arrays.csr.col_indices.data(),
       arrays.csr.col_indices.size() * sizeof(Index));
  take(arrays.csr.values.data(), arrays.csr.values.size() * sizeof(Value));
  take(arrays.labels.data(), arrays.labels.size() * sizeof(float));

  std::uint64_t stored = 0;
  std::memcpy(&stored, cursor, sizeof(stored));
  if (stored != checksum.digest()) {
    throw std::runtime_error("binary read: checksum mismatch");
  }
  return assemble(header, std::move(arrays));
}

LabeledMatrix read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary(in);
}

}  // namespace tpa::sparse
