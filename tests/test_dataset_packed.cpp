// Conformance suite for the packed binary dataset format
// (dataset/packed.hpp): encode/decode roundtrip, mmap/stream equivalence,
// a committed golden file pinning the byte layout forever, and a
// corruption matrix proving that truncation, bit flips, bad CRCs, and
// wrong versions surface as descriptive IoErrors — never as UB.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/dataset.hpp"
#include "dataset/factory.hpp"
#include "dataset/packed.hpp"
#include "dataset/storage.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

namespace fs = std::filesystem;

/// The generation config behind tests/golden/dataset_v1.qds. Regenerating
/// the golden file (only after a deliberate, version-bumped format change)
/// must use exactly this config.
DatasetGenConfig golden_config() {
  DatasetGenConfig config;
  config.num_instances = 6;
  config.min_nodes = 2;
  config.max_nodes = 8;
  config.optimizer_evaluations = 50;
  config.seed = 777;
  return config;
}

fs::path golden_path() {
  return fs::path(QGNN_GOLDEN_DIR) / "dataset_v1.qds";
}

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("qgnn_packed_" + std::to_string(::getpid()) + "_" + name);
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::uint8_t> out;
  char c;
  while (in.get(c)) out.push_back(static_cast<std::uint8_t>(c));
  return out;
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

void expect_entries_equal(const std::vector<DatasetEntry>& a,
                          const std::vector<DatasetEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].graph.num_nodes(), b[i].graph.num_nodes()) << i;
    ASSERT_EQ(a[i].graph.edges().size(), b[i].graph.edges().size()) << i;
    for (std::size_t e = 0; e < a[i].graph.edges().size(); ++e) {
      EXPECT_EQ(a[i].graph.edges()[e].u, b[i].graph.edges()[e].u);
      EXPECT_EQ(a[i].graph.edges()[e].v, b[i].graph.edges()[e].v);
      EXPECT_EQ(a[i].graph.edges()[e].weight, b[i].graph.edges()[e].weight);
    }
    EXPECT_EQ(a[i].degree, b[i].degree) << i;
    EXPECT_EQ(a[i].label.gammas, b[i].label.gammas) << i;
    EXPECT_EQ(a[i].label.betas, b[i].label.betas) << i;
    EXPECT_EQ(a[i].expectation, b[i].expectation) << i;
    EXPECT_EQ(a[i].optimum, b[i].optimum) << i;
    EXPECT_EQ(a[i].approximation_ratio, b[i].approximation_ratio) << i;
  }
}

TEST(Crc32, KnownVectors) {
  // IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee("", 0), 0x00000000u);
  // Chaining: crc(a ++ b) == crc(b, crc(a)).
  EXPECT_EQ(crc32_ieee("56789", 5, crc32_ieee("1234", 4)),
            crc32_ieee("123456789", 9));
}

TEST(PackedDataset, RoundTripsThroughFileAndImage) {
  const auto entries = generate_dataset(golden_config());
  const fs::path path = temp_file("roundtrip.qds");
  save_packed_dataset(path.string(), entries);

  // The on-disk bytes are exactly pack_dataset's image.
  EXPECT_EQ(read_bytes(path), pack_dataset(entries));
  EXPECT_TRUE(is_packed_dataset_file(path.string()));

  const auto loaded = load_packed_dataset(path.string());
  expect_entries_equal(entries, loaded);

  // Re-encoding the decoded entries reproduces the same bytes: decode
  // loses nothing, which is what lets resume rebuild byte-identical files
  // from shards.
  EXPECT_EQ(pack_dataset(loaded), pack_dataset(entries));
  fs::remove(path);
}

TEST(PackedDataset, MmapAndStreamReadersAgree) {
  const auto entries = generate_dataset(golden_config());
  const fs::path path = temp_file("modes.qds");
  save_packed_dataset(path.string(), entries);

  PackedDatasetReader mm(path.string(), PackedDatasetReader::Mode::kMmap);
  PackedDatasetReader st(path.string(), PackedDatasetReader::Mode::kStream);
  ASSERT_EQ(mm.size(), entries.size());
  ASSERT_EQ(st.size(), entries.size());
  EXPECT_EQ(mm.info().index_crc32, st.info().index_crc32);
  EXPECT_EQ(mm.info().records_crc32, st.info().records_crc32);
  expect_entries_equal(mm.read_all(), st.read_all());
  fs::remove(path);
}

TEST(PackedDataset, LoadDatasetDispatchesOnFormat) {
  const auto entries = generate_dataset(golden_config());

  const fs::path packed = temp_file("dispatch.qds");
  save_packed_dataset(packed.string(), entries);
  expect_entries_equal(load_dataset(packed.string()), entries);
  fs::remove(packed);

  const fs::path dir = temp_file("dispatch_dir");
  fs::remove_all(dir);
  save_dataset(dir.string(), entries);
  expect_entries_equal(load_dataset(dir.string()), entries);
  fs::remove_all(dir);
}

TEST(PackedDataset, EmptyAndWeightedAndDeepDatasetsRoundTrip) {
  // Zero records still writes a valid, loadable file.
  const fs::path path = temp_file("edge.qds");
  save_packed_dataset(path.string(), {});
  EXPECT_EQ(load_packed_dataset(path.string()).size(), 0u);

  // Non-unit weights and depth > 1 labels survive exactly.
  DatasetEntry e;
  e.graph = Graph(4);
  e.graph.add_edge(0, 1, 0.125);
  e.graph.add_edge(2, 3, -2.75);
  e.degree = 1;
  e.label = QaoaParams({0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6});
  e.expectation = 1.25;
  e.optimum = 2.5;
  e.approximation_ratio = 0.5;
  save_packed_dataset(path.string(), {e});
  const auto loaded = load_packed_dataset(path.string());
  expect_entries_equal({e}, loaded);
  EXPECT_EQ(PackedDatasetReader(path.string()).depth(), 3);
  fs::remove(path);
}

TEST(PackedDataset, MixedDepthIsRejectedAtPackTime) {
  DatasetEntry a;
  a.graph = Graph(2);
  a.graph.add_edge(0, 1);
  a.degree = 1;
  a.label = QaoaParams({0.1}, {0.2});
  DatasetEntry b = a;
  b.label = QaoaParams({0.1, 0.3}, {0.2, 0.4});
  EXPECT_THROW(pack_dataset({a, b}), Error);
}

TEST(PackedDataset, GoldenFileStaysByteStable) {
  // The committed golden file pins the byte format: if encoding, CRC, the
  // labelling pipeline, or the RNG derivation drift, this fails. Changing
  // the format deliberately means bumping kPackedVersion, regenerating
  // with golden_config(), and updating DESIGN.md §10.
  const auto entries = generate_dataset(golden_config());
  const std::vector<std::uint8_t> expect = read_bytes(golden_path());
  ASSERT_FALSE(expect.empty()) << "missing golden file " << golden_path();
  EXPECT_EQ(pack_dataset(entries), expect)
      << "packed encoding of golden_config() drifted from the committed "
         "golden file";

  PackedDatasetReader reader(golden_path().string());
  EXPECT_EQ(reader.info().version, kPackedVersion);
  EXPECT_EQ(reader.size(), 6u);
  EXPECT_EQ(reader.depth(), 1);
  expect_entries_equal(reader.read_all(), entries);

  // The factory labels through the same per-item path, so its output
  // file is the golden file byte for byte.
  const fs::path factory_out = temp_file("golden_factory.qds");
  ASSERT_TRUE(run_dataset_factory(golden_config(), {}, factory_out.string()));
  EXPECT_EQ(read_bytes(factory_out), expect)
      << "run_dataset_factory(golden_config()) drifted from the committed "
         "golden file";
  fs::remove(factory_out);
}

// --- Corruption matrix -----------------------------------------------------
// Every mutation of a valid file must produce IoError with the file name in
// the message, and must never crash, hang, or return garbage (the dataset
// label runs under ASan/UBSan in CI).

class PackedCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetGenConfig config = golden_config();
    config.num_instances = 3;
    image_ = pack_dataset(generate_dataset(config));
    path_ = temp_file("corrupt.qds");
  }
  void TearDown() override { fs::remove(path_); }

  void expect_rejected(std::vector<std::uint8_t> bytes,
                       const std::string& what) {
    write_bytes(path_, bytes);
    try {
      (void)load_packed_dataset(path_.string());
      FAIL() << "corrupt file accepted: " << what;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(path_.string()), std::string::npos)
          << what << ": error message should name the file: " << e.what();
    }
    // The stream reader must reject it identically.
    EXPECT_THROW(PackedDatasetReader(path_.string(),
                                     PackedDatasetReader::Mode::kStream),
                 IoError)
        << what;
  }

  std::vector<std::uint8_t> image_;
  fs::path path_;
};

TEST_F(PackedCorruption, TruncatedHeader) {
  expect_rejected({image_.begin(), image_.begin() + 40}, "truncated header");
}

TEST_F(PackedCorruption, TruncatedBody) {
  expect_rejected({image_.begin(), image_.end() - 5}, "truncated body");
}

TEST_F(PackedCorruption, EmptyFile) { expect_rejected({}, "empty file"); }

TEST_F(PackedCorruption, BadMagic) {
  auto bytes = image_;
  bytes[0] ^= 0xFF;
  expect_rejected(bytes, "bad magic");
}

TEST_F(PackedCorruption, UnsupportedVersion) {
  auto bytes = image_;
  bytes[8] = 99;  // version field; header CRC updated to match
  const std::uint32_t crc = crc32_ieee(bytes.data(), 64);
  for (int i = 0; i < 4; ++i) {
    bytes[64 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  expect_rejected(bytes, "unsupported version");
}

TEST_F(PackedCorruption, FlippedHeaderByte) {
  auto bytes = image_;
  bytes[16] ^= 0x01;  // record count, breaks the header CRC
  expect_rejected(bytes, "flipped header byte");
}

TEST_F(PackedCorruption, FlippedIndexByte) {
  auto bytes = image_;
  bytes[kPackedHeaderBytes] ^= 0x80;
  expect_rejected(bytes, "flipped index byte");
}

TEST_F(PackedCorruption, FlippedRecordByte) {
  auto bytes = image_;
  bytes[bytes.size() - 3] ^= 0x40;
  expect_rejected(bytes, "flipped record byte");
}

TEST_F(PackedCorruption, TrailingGarbage) {
  auto bytes = image_;
  bytes.push_back(0xAB);
  expect_rejected(bytes, "trailing garbage");
}

TEST_F(PackedCorruption, MissingFileIsDescriptive) {
  const std::string missing = temp_file("does_not_exist.qds").string();
  try {
    (void)load_packed_dataset(missing);
    FAIL() << "missing file accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(is_packed_dataset_file(missing));
}

}  // namespace
}  // namespace qgnn
