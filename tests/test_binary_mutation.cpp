// Seeded mutation of the TPA2 decoder.  A valid image is bit-flipped,
// truncated and given inflated rows/nnz/labels fields (with the digest left
// stale and with it recomputed, so only the size checks stand between a
// lying header and an allocation), then run through the stream reader, the
// memory reader, a stream that cannot seek (a pipe) and ShardReader in
// both read modes.  Every case must end in a std::runtime_error or in an
// exact round trip: a decoded result that re-encodes to the input bytes.
// Anything else — std::bad_alloc, std::length_error,
// std::invalid_argument, a crash under ASan — fails.
// The word-parallel digest's guarantee is then checked exhaustively: any
// change confined to one 8-byte word of a small image is detected, and so
// is any pair of flipped word sign bits (bit 63), which no odd multiply
// moves and plain FNV-1a lanes therefore miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/io_binary.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "util/rng.hpp"

namespace tpa::sparse {
namespace {

constexpr std::size_t kMagicBytes = 4;
constexpr std::size_t kDigestBytes = 8;
// Header field offsets in the image (after the 4-byte magic).
constexpr std::size_t kRowsAt = kMagicBytes;
constexpr std::size_t kColsAt = kMagicBytes + 8;
constexpr std::size_t kNnzAt = kMagicBytes + 16;
constexpr std::size_t kLabelsAt = kMagicBytes + 24;
constexpr std::size_t kOffsetsAt = kMagicBytes + 32;
// Stream, pipe, memory, and ShardReader buffered and mmap.
constexpr int kReaders = 5;

// 13 ragged rows (one empty): the digested region is 4 bytes past a word
// boundary, so the byte-wise tail is exercised too.
LabeledMatrix make_data() {
  std::vector<Offset> offsets{0};
  std::vector<Index> indices;
  std::vector<Value> values;
  std::vector<float> labels;
  for (Index r = 0; r < 13; ++r) {
    const Index nnz = (r * 5 + 2) % 6;
    for (Index k = 0; k < nnz; ++k) {
      indices.push_back(r % 3 + 3 * k);
      values.push_back(0.25F * static_cast<float>(r + k) - 1.0F);
    }
    offsets.push_back(indices.size());
    labels.push_back(r % 2 == 0 ? 1.0F : -1.0F);
  }
  return LabeledMatrix{CsrMatrix(13, 20, std::move(offsets),
                                 std::move(indices), std::move(values)),
                       std::move(labels)};
}

std::string encode(const LabeledMatrix& data) {
  std::ostringstream out;
  write_binary(out, data);
  return out.str();
}

std::uint64_t get_u64(const std::string& image, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, image.data() + at, sizeof(value));
  return value;
}

void put_u64(std::string& image, std::size_t at, std::uint64_t value) {
  std::memcpy(image.data() + at, &value, sizeof(value));
}

std::uint64_t digest_of(const void* data, std::size_t bytes) {
  WideHash hash;
  hash.update(data, bytes);
  return hash.digest();
}

// Recomputes the trailing digest, as a forger would.
void redigest(std::string& image) {
  if (image.size() < kMagicBytes + kDigestBytes) return;
  put_u64(image, image.size() - kDigestBytes,
          digest_of(image.data() + kMagicBytes,
                    image.size() - kMagicBytes - kDigestBytes));
}

// An input stream over a string that cannot seek, like a pipe: tellg()
// fails, so the reader cannot measure it before reading.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

class BinaryMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("tpa_mutation_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    original_ = make_data();
    image_ = encode(original_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // One reader on one image: a runtime_error or an exact round trip.
  // Returns true when the image was rejected.
  bool typed_or_exact(const std::string& image, const std::string& label,
                      const std::function<LabeledMatrix()>& read,
                      const char* context = nullptr) {
    try {
      const LabeledMatrix out = read();
      EXPECT_EQ(encode(out), image)
          << label << ": decoded an image it does not re-encode to";
      return false;
    } catch (const std::runtime_error& error) {
      if (context != nullptr) {
        EXPECT_NE(std::string(error.what()).find(context), std::string::npos)
            << label << ": error lacks context: " << error.what();
      }
      return true;
    } catch (const std::exception& error) {
      ADD_FAILURE() << label << ": untyped failure: " << error.what();
      return true;
    }
  }

  // Every reader; returns how many rejected the image.
  int run_all(const std::string& image, const std::string& label) {
    int rejected = 0;
    rejected += typed_or_exact(image, label + " [stream]", [&] {
      std::istringstream in(image);
      return read_binary(in);
    });
    rejected += typed_or_exact(image, label + " [pipe]", [&] {
      PipeBuf pipe(image);
      std::istream in(&pipe);
      return read_binary(in);
    });
    rejected += typed_or_exact(image, label + " [memory]", [&] {
      return read_binary(image.data(), image.size());
    });
    // The manifest agrees with the damaged file's size, so the decoder —
    // not the manifest's size check — has to find the damage.
    const auto path = dir_ / "m.shard00000.tpa2";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    store::Manifest manifest;
    manifest.name = "m";
    manifest.rows = original_.matrix.rows();
    manifest.cols = original_.matrix.cols();
    manifest.nnz = original_.matrix.nnz();
    manifest.shards = {
        {0, manifest.rows, manifest.nnz, image.size(), "m.shard00000.tpa2"}};
    for (const auto mode : {store::ReadMode::kBuffered, store::ReadMode::kMmap}) {
      const store::ShardReader reader(manifest, dir_.string(), mode);
      rejected += typed_or_exact(
          image, label + " [shard " + store::read_mode_name(mode) + "]",
          [&] { return reader.read_shard(0); }, "store shard 0");
    }
    return rejected;
  }

  std::filesystem::path dir_;
  LabeledMatrix original_;
  std::string image_;
};

TEST_F(BinaryMutationTest, IntactImageRoundTripsThroughEveryReader) {
  EXPECT_EQ(run_all(image_, "intact"), 0);
}

TEST_F(BinaryMutationTest, SeededBitFlipsAreRejected) {
  util::Rng rng(20241);
  for (int trial = 0; trial < 200; ++trial) {
    std::string image = image_;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.uniform_index(image.size());
      image[byte] = static_cast<char>(image[byte] ^ (1 << rng.uniform_index(8)));
    }
    if (image == image_) continue;  // flips that cancelled out
    EXPECT_EQ(run_all(image, "flip trial " + std::to_string(trial)),
              kReaders);
  }
}

TEST_F(BinaryMutationTest, EveryTruncationIsRejected) {
  for (std::size_t size = 0; size < image_.size(); ++size) {
    EXPECT_EQ(run_all(image_.substr(0, size),
                      "truncated to " + std::to_string(size)),
              kReaders);
  }
}

TEST_F(BinaryMutationTest, InflatedLengthFieldsFailBeforeAllocating) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint64_t> lies = {
      std::uint64_t{1} << 33,            // 32 GB per entry array
      (std::uint64_t{1} << 61) + 2,      // nnz * 8 wraps to 16
      std::uint64_t{1} << 32,            // one past the 32-bit index range
      max, max / 8, 0};
  for (const std::size_t at : {kRowsAt, kNnzAt, kLabelsAt, kColsAt}) {
    std::vector<std::uint64_t> values = lies;
    values.push_back(get_u64(image_, at) + 1);
    values.push_back(get_u64(image_, at) - 1);
    for (const std::uint64_t value : values) {
      for (const bool forged : {false, true}) {
        std::string image = image_;
        put_u64(image, at, value);
        if (forged) redigest(image);
        if (image == image_) continue;
        const std::string label = "field@" + std::to_string(at) + "=" +
                                  std::to_string(value) +
                                  (forged ? " (re-digested)" : "");
        // A forged image whose header still describes its own bytes (e.g.
        // a larger cols) is a valid image and may decode: run_all checks
        // that it then re-encodes exactly.  Stale digests always fail.
        const int rejected = run_all(image, label);
        if (!forged) {
          EXPECT_EQ(rejected, kReaders) << label;
        }
      }
    }
  }
}

TEST_F(BinaryMutationTest, LabelCountMustEqualRows) {
  // Two labels fewer and one entry more keep the byte count, and the digest
  // is recomputed: only the labels == rows check is left to reject it.
  std::string image = image_;
  put_u64(image, kLabelsAt, get_u64(image, kLabelsAt) - 2);
  put_u64(image, kNnzAt, get_u64(image, kNnzAt) + 1);  // same total bytes
  redigest(image);
  EXPECT_EQ(run_all(image, "labels != rows"), kReaders);
}

TEST_F(BinaryMutationTest, ForgedArraysFailCsrValidationAsRuntimeErrors) {
  // Digest-valid images whose arrays are not a CSR matrix: an offset
  // pointing past the index array (the row ranges must be checked before
  // any index is read), a decreasing offset, an out-of-range and a
  // repeated column index.
  const std::size_t rows = original_.matrix.rows();
  const std::size_t indices_at = kOffsetsAt + 8 * (rows + 1);
  const std::uint64_t nnz = original_.matrix.nnz();
  struct Forgery {
    std::size_t at;
    std::uint64_t value;
    bool word;  // 8-byte offset or 4-byte index
  };
  const std::vector<Forgery> forgeries = {
      {kOffsetsAt + 8, nnz + 1000, true},
      {kOffsetsAt + 8 * 2, 0, true},
      {indices_at, 20, false},
      {indices_at + 4, get_u64(image_, indices_at) & 0xffffffffu, false}};
  for (const Forgery& forgery : forgeries) {
    std::string image = image_;
    if (forgery.word) {
      put_u64(image, forgery.at, forgery.value);
    } else {
      const auto index = static_cast<std::uint32_t>(forgery.value);
      std::memcpy(image.data() + forgery.at, &index, sizeof(index));
    }
    redigest(image);
    EXPECT_EQ(run_all(image, "forged array @" + std::to_string(forgery.at)),
              kReaders);
  }
}

TEST_F(BinaryMutationTest, RetiredFormatIsRefusedWithItsOwnType) {
  std::string image = image_;
  image[3] = '1';  // "TPA1"
  EXPECT_THROW(read_binary(image.data(), image.size()),
               UnsupportedFormatError);
  std::istringstream in(image);
  EXPECT_THROW(read_binary(in), UnsupportedFormatError);
  EXPECT_THROW(read_binary_header(image.data(), image.size()),
               UnsupportedFormatError);
  const auto path = dir_ / "old.shard00000.tpa1";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  store::Manifest manifest;
  manifest.name = "old";
  manifest.rows = original_.matrix.rows();
  manifest.cols = original_.matrix.cols();
  manifest.nnz = original_.matrix.nnz();
  manifest.shards = {
      {0, manifest.rows, manifest.nnz, image.size(), "old.shard00000.tpa1"}};
  for (const auto mode : {store::ReadMode::kBuffered, store::ReadMode::kMmap}) {
    const store::ShardReader reader(manifest, dir_.string(), mode);
    try {
      reader.read_shard(0);
      ADD_FAILURE() << "a TPA1 shard was decoded";
    } catch (const UnsupportedFormatError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("store shard 0"), std::string::npos) << what;
      EXPECT_NE(what.find("re-shard"), std::string::npos) << what;
    }
  }
}

TEST(WideHash, ChainedUpdatesEqualOneShotAtEverySplit) {
  std::string bytes;
  for (int i = 0; i < 100; ++i) bytes.push_back(static_cast<char>(i * 37 + 11));
  const std::uint64_t whole = digest_of(bytes.data(), bytes.size());
  for (std::size_t a = 0; a <= bytes.size(); a += 3) {
    for (std::size_t b = a; b <= bytes.size(); b += 7) {
      WideHash chained;
      chained.update(bytes.data(), a);
      chained.update(bytes.data() + a, b - a);
      chained.update(bytes.data() + b, bytes.size() - b);
      EXPECT_EQ(chained.digest(), whole) << "split " << a << "/" << b;
    }
  }
}

TEST(WideHash, LengthAndTailAreFolded) {
  const std::string zeros(64, '\0');
  // Zero bytes still count: sizes that differ only in zero words or zero
  // tail bytes hash apart.
  EXPECT_NE(digest_of(zeros.data(), 32), digest_of(zeros.data(), 40));
  EXPECT_NE(digest_of(zeros.data(), 33), digest_of(zeros.data(), 34));
  EXPECT_NE(digest_of(zeros.data(), 0), digest_of(zeros.data(), 1));
  // Pinned value: the TPA2 digest is part of the on-disk format.
  const std::string text = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(digest_of(text.data(), text.size()), 0xba001019587764b2ULL);
}

TEST_F(BinaryMutationTest, AnyChangeWithinOneWordIsDetected) {
  // Exhaustive over the digested region of the small image: every single
  // bit of every word and of the tail, plus seeded multi-bit patterns
  // confined to one word.
  const std::string region =
      image_.substr(kMagicBytes, image_.size() - kMagicBytes - kDigestBytes);
  ASSERT_NE(region.size() % 8, 0u) << "the image should have a byte tail";
  const std::uint64_t clean = digest_of(region.data(), region.size());
  util::Rng rng(77);
  const std::size_t words = region.size() / 8;
  for (std::size_t w = 0; w <= words; ++w) {
    const std::size_t begin = 8 * w;
    const std::size_t width = std::min<std::size_t>(8, region.size() - begin);
    for (std::size_t bit = 0; bit < 8 * width; ++bit) {
      std::string mutated = region;
      mutated[begin + bit / 8] =
          static_cast<char>(mutated[begin + bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(digest_of(mutated.data(), mutated.size()), clean)
          << "word " << w << " bit " << bit;
    }
    if (width < 8) continue;  // multi-byte patterns: whole words only
    for (int trial = 0; trial < 32; ++trial) {
      std::uint64_t mask = rng();
      if (mask == 0) mask = 1;
      std::string mutated = region;
      put_u64(mutated, begin, get_u64(mutated, begin) ^ mask);
      ASSERT_NE(digest_of(mutated.data(), mutated.size()), clean)
          << "word " << w << " mask " << mask;
    }
  }
  // And the decoder itself: one seeded flip per word of the full image.
  for (std::size_t w = 0; w * 8 < image_.size(); ++w) {
    std::string image = image_;
    const std::size_t byte =
        std::min(image.size() - 1, 8 * w + rng.uniform_index(8));
    image[byte] = static_cast<char>(image[byte] ^ (1 << rng.uniform_index(8)));
    EXPECT_THROW(read_binary(image.data(), image.size()), std::runtime_error)
        << "word " << w;
  }
}

TEST_F(BinaryMutationTest, PairsOfFlippedSignBitsAreDetected) {
  // Flipping bit 63 adds 2^63, and 2^63 times an odd number is 2^63 again:
  // a multiply-only lane keeps such a change on bit 63 forever, so two of
  // them cancel.  Exhaustive over all pairs of words of the digested region.
  const std::string region =
      image_.substr(kMagicBytes, image_.size() - kMagicBytes - kDigestBytes);
  const std::uint64_t clean = digest_of(region.data(), region.size());
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::size_t words = region.size() / 8;
  for (std::size_t a = 0; a < words; ++a) {
    for (std::size_t b = a + 1; b < words; ++b) {
      std::string mutated = region;
      put_u64(mutated, 8 * a, get_u64(mutated, 8 * a) ^ kSign);
      put_u64(mutated, 8 * b, get_u64(mutated, 8 * b) ^ kSign);
      ASSERT_NE(digest_of(mutated.data(), mutated.size()), clean)
          << "words " << a << " and " << b;
    }
  }
  // Through every reader: two float sign bits that sit on word bit 63 (a
  // value or a label, in the same lane or in different lanes) make an
  // image whose arrays are still a valid CSR matrix.
  const std::size_t rows = original_.matrix.rows();
  const std::size_t nnz = original_.matrix.nnz();
  const std::size_t values_at = kOffsetsAt + 8 * (rows + 1) + 4 * nnz;
  const std::size_t floats_end = values_at + 4 * (nnz + rows);
  std::vector<std::size_t> sign_bytes;  // the byte holding bit 63
  for (std::size_t at = values_at; at < floats_end; at += 4) {
    if ((at + 3 - kMagicBytes) % 8 == 7) sign_bytes.push_back(at + 3);
  }
  int same_lane = 0;
  int other_lane = 0;
  for (std::size_t a = 0; a < sign_bytes.size(); ++a) {
    for (std::size_t b = a + 1; b < sign_bytes.size(); ++b) {
      const std::size_t word_a = (sign_bytes[a] - kMagicBytes) / 8;
      const std::size_t word_b = (sign_bytes[b] - kMagicBytes) / 8;
      const bool same = word_a % WideHash::kLanes == word_b % WideHash::kLanes;
      (same ? same_lane : other_lane) += 1;
      std::string image = image_;
      image[sign_bytes[a]] = static_cast<char>(image[sign_bytes[a]] ^ 0x80);
      image[sign_bytes[b]] = static_cast<char>(image[sign_bytes[b]] ^ 0x80);
      EXPECT_EQ(run_all(image, "sign bits of words " + std::to_string(word_a) +
                                   " and " + std::to_string(word_b)),
                kReaders);
    }
  }
  EXPECT_GT(same_lane, 0);
  EXPECT_GT(other_lane, 0);
}

}  // namespace
}  // namespace tpa::sparse
