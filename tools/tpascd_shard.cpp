// tpascd_shard — build and validate out-of-core shard stores.
//
// Converts a dataset (svmlight text, our .bin cache, or a generated
// stand-in) into the TPASTORE manifest + TPA2 shard-slice layout that
// tpascd_train --store trains from, or verifies an existing store
// shard-by-shard (sizes, header shapes, checksums).
//
// Examples:
//   tpascd_shard --data train.svm --out store --name criteo --shards 8
//   tpascd_shard --data huge.svm --stream --rows-per-shard 1000000
//                --num-features 75000000 --out store --name criteo1day
//   tpascd_shard --generate criteo --examples 65536 --shards 8 --out store
//   tpascd_shard --verify store/criteo.manifest --store-mode mmap
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "sparse/load.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "store/svmlight_stream.hpp"
#include "util/cli.hpp"

namespace {

using namespace tpa;

// Mirrors tpascd_train's generator wiring exactly, so a store built here
// and an in-memory run over `--generate` with the same seed see the same
// bytes — the precondition for the bit-exact streamed-vs-resident check.
sparse::LabeledMatrix generate_matrix(const util::ArgParser& parser) {
  const auto kind = parser.get_string("generate", "webspam");
  const auto examples =
      static_cast<data::Index>(parser.get_int("examples", 8192));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed", 42));
  data::Dataset dataset = [&] {
    if (kind == "criteo") {
      data::CriteoLikeConfig config;
      config.num_examples = examples;
      config.seed = seed;
      return data::make_criteo_like(config);
    }
    data::WebspamLikeConfig config;
    config.num_examples = examples;
    config.num_features =
        static_cast<data::Index>(parser.get_int("features", 2 * examples));
    config.seed = seed;
    return data::make_webspam_like(config);
  }();
  return sparse::LabeledMatrix{
      dataset.by_row(),
      std::vector<float>(dataset.labels().begin(), dataset.labels().end())};
}

int verify_store(const std::string& manifest_path, store::ReadMode mode) {
  const auto reader = store::ShardReader::open(manifest_path, mode);
  const auto& manifest = reader.manifest();
  std::printf("store %s: %llu rows x %llu cols, %llu nnz, %zu shards (%s)\n",
              manifest.name.c_str(),
              static_cast<unsigned long long>(manifest.rows),
              static_cast<unsigned long long>(manifest.cols),
              static_cast<unsigned long long>(manifest.nnz),
              manifest.shards.size(), store::read_mode_name(mode));
  for (std::size_t i = 0; i < reader.num_shards(); ++i) {
    const auto slice = reader.read_shard(i);  // validates size+shape+checksum
    std::printf("  shard %zu: rows [%llu, %llu), nnz %llu — ok\n", i,
                static_cast<unsigned long long>(
                    manifest.shards[i].row_begin),
                static_cast<unsigned long long>(manifest.shards[i].row_begin +
                                                manifest.shards[i].rows),
                static_cast<unsigned long long>(slice.matrix.nnz()));
  }
  std::printf("all %zu shards verified\n", reader.num_shards());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("tpascd_shard",
                         "convert datasets to the out-of-core shard store "
                         "(and verify existing stores)");
  parser.add_option("data", "svmlight/.bin dataset path (omit to generate)");
  parser.add_option("num-features", "force feature count for svmlight", "0");
  parser.add_option("generate", "webspam | criteo (when --data absent)",
                    "webspam");
  parser.add_option("examples", "generated example count", "8192");
  parser.add_option("features", "generated feature count", "2x examples");
  parser.add_option("seed", "RNG seed", "42");
  parser.add_option("out", "store output directory", "store");
  parser.add_option("name", "store name (manifest/shard file prefix)",
                    "dataset");
  parser.add_option("shards", "shard count (even ceil split)", "4");
  parser.add_option("rows-per-shard",
                    "rows per shard (overrides --shards when > 0)", "0");
  parser.add_flag("stream",
                  "stream svmlight text row-by-row (one shard of peak "
                  "memory; needs --rows-per-shard)");
  parser.add_option("verify",
                    "validate every shard of this manifest instead of "
                    "converting");
  parser.add_option("store-mode", "verify read mode: buffered | mmap",
                    "buffered");
  if (!parser.parse(argc, argv)) return 1;

  try {
    if (parser.has("verify")) {
      return verify_store(
          parser.get_string("verify", ""),
          store::parse_read_mode(parser.get_string("store-mode", "buffered")));
    }

    const auto out = parser.get_string("out", "store");
    const auto name = parser.get_string("name", "dataset");
    const auto shards =
        static_cast<std::uint64_t>(parser.get_int("shards", 4));
    const auto rows_per_shard =
        static_cast<std::uint64_t>(parser.get_int("rows-per-shard", 0));

    store::Manifest manifest;
    if (parser.get_bool("stream")) {
      if (!parser.has("data") || rows_per_shard == 0) {
        throw std::invalid_argument(
            "--stream needs --data <svmlight> and --rows-per-shard");
      }
      manifest = store::convert_svmlight_file_to_store(
          parser.get_string("data", ""), out, name, rows_per_shard,
          static_cast<sparse::Index>(parser.get_int("num-features", 0)));
    } else {
      const sparse::LabeledMatrix data =
          parser.has("data")
              ? sparse::load_labeled_file(
                    parser.get_string("data", ""),
                    static_cast<sparse::Index>(
                        parser.get_int("num-features", 0)))
              : generate_matrix(parser);
      const std::uint64_t rps =
          rows_per_shard > 0
              ? rows_per_shard
              : store::rows_per_shard(data.matrix.rows(), shards);
      store::ShardWriter writer(out, name,
                                data.matrix.cols(), rps);
      for (sparse::Index r = 0; r < data.matrix.rows(); ++r) {
        const auto row = data.matrix.row(r);
        writer.append(row.indices, row.values, data.labels[r]);
      }
      manifest = writer.finish();
    }
    std::printf(
        "wrote %s: %llu rows x %llu cols, %llu nnz across %zu shards\n",
        (out + "/" + name + ".manifest").c_str(),
        static_cast<unsigned long long>(manifest.rows),
        static_cast<unsigned long long>(manifest.cols),
        static_cast<unsigned long long>(manifest.nnz),
        manifest.shards.size());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
