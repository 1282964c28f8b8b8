// Dataset factory conformance (dataset/factory.hpp): the factory's output
// file must hold exactly generate_dataset's records, stay byte-identical
// at every thread count, and survive a kill-and-resume cycle
// (re-executing this binary, like test_determinism does) with a
// byte-identical final file.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/dataset.hpp"
#include "dataset/factory.hpp"
#include "dataset/packed.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {
namespace {

namespace fs = std::filesystem;

DatasetGenConfig tiny_config() {
  DatasetGenConfig config;
  config.num_instances = 12;
  config.min_nodes = 2;
  config.max_nodes = 7;
  config.optimizer_evaluations = 40;
  config.seed = 99;
  return config;
}

fs::path temp_dir(const std::string& name) {
  return fs::temp_directory_path() /
         ("qgnn_factory_" + std::to_string(::getpid()) + "_" + name);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

TEST(DatasetFactory, ThreadCountNeverChangesTheBytes) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("threads");
  fs::remove_all(base);
  fs::create_directories(base);
  const fs::path ref = base / "ref.qds";
  ASSERT_TRUE(run_dataset_factory(config, {}, ref.string()));
  const std::string expect = read_bytes(ref);
  const std::vector<std::uint8_t> packed =
      pack_dataset(generate_dataset(config));
  EXPECT_EQ(expect, std::string(packed.begin(), packed.end()))
      << "factory output drifted from generate_dataset";
  for (const int threads : {1, 2, 8}) {
    ThreadPool::set_global_threads(threads);
    const fs::path out = base / ("t" + std::to_string(threads) + ".qds");
    ASSERT_TRUE(run_dataset_factory(config, {}, out.string()));
    EXPECT_EQ(read_bytes(out), expect) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
  fs::remove_all(base);
}

TEST(DatasetFactory, ProgressReachesTotal) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("progress");
  fs::remove_all(base);
  fs::create_directories(base);
  int last = 0;
  ASSERT_TRUE(run_dataset_factory(
      config, {}, (base / "out.qds").string(), [&](int done, int total) {
        EXPECT_EQ(total, 12);
        EXPECT_EQ(done, last + 1);
        last = done;
      }));
  EXPECT_EQ(last, 12);
  fs::remove_all(base);
}

TEST(DatasetFactory, StopAfterShardsThenResumeIsByteIdentical) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("inproc");
  fs::remove_all(base);
  fs::create_directories(base);

  // Uninterrupted, checkpoint-free reference run.
  const fs::path ref = base / "ref.qds";
  ASSERT_TRUE(run_dataset_factory(config, {}, ref.string()));

  // Interrupted run: commit two 5-record shards, then stop.
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = (base / "ckpt").string();
  factory.stop_after_shards = 2;
  const fs::path out = base / "resumed.qds";
  ASSERT_FALSE(run_dataset_factory(config, factory, out.string()));
  EXPECT_FALSE(fs::exists(out)) << "stopped run must not write the output";
  EXPECT_TRUE(fs::exists(base / "ckpt" / "manifest.txt"));

  // Resume to completion; the final file matches the uninterrupted run.
  factory.stop_after_shards = 0;
  factory.resume = true;
  ASSERT_TRUE(run_dataset_factory(config, factory, out.string()));
  EXPECT_EQ(read_bytes(out), read_bytes(ref));

  fs::remove_all(base);
}

TEST(DatasetFactory, ResumeRejectsMismatchedConfig) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("mismatch");
  fs::remove_all(base);

  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = (base / "ckpt").string();
  factory.stop_after_shards = 1;
  ASSERT_FALSE(
      run_dataset_factory(config, factory, (base / "out.qds").string()));

  DatasetGenConfig other = config;
  other.seed = 1000;  // different labels; resuming would corrupt the set
  factory.resume = true;
  factory.stop_after_shards = 0;
  EXPECT_THROW(
      run_dataset_factory(other, factory, (base / "out.qds").string()),
      IoError);
  fs::remove_all(base);
}

TEST(DatasetFactory, ResumeRejectsCorruptManifest) {
  const fs::path base = temp_dir("badmanifest");
  fs::remove_all(base);
  const fs::path ckpt = base / "ckpt";
  fs::create_directories(ckpt);
  {
    std::ofstream m(ckpt / "manifest.txt");
    m << "qgnn-factory-manifest v1\nfingerprint oops\n";
  }
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = ckpt.string();
  factory.resume = true;
  try {
    run_dataset_factory(tiny_config(), factory, (base / "out.qds").string());
    FAIL() << "corrupt manifest accepted";
  } catch (const IoError& e) {
    // The error names the manifest and the offending line.
    EXPECT_NE(std::string(e.what()).find("manifest.txt:2"), std::string::npos)
        << e.what();
  }
  fs::remove_all(base);
}

TEST(DatasetFactory, FingerprintTracksGenerationFieldsOnly) {
  const DatasetGenConfig config = tiny_config();
  DatasetGenConfig different = config;
  different.seed += 1;
  EXPECT_NE(dataset_config_fingerprint(config),
            dataset_config_fingerprint(different));
  different = config;
  different.depth += 1;
  EXPECT_NE(dataset_config_fingerprint(config),
            dataset_config_fingerprint(different));
  EXPECT_EQ(dataset_config_fingerprint(config),
            dataset_config_fingerprint(tiny_config()));
}

/// Worker mode for the cross-process kill/resume test. Environment:
///   QGNN_FACTORY_OUT   output file (also selects worker mode)
///   QGNN_FACTORY_CKPT  checkpoint dir
///   QGNN_FACTORY_STOP  stop after N shards ("0" = run to completion)
/// Thread count comes from QGNN_NUM_THREADS, read by the fresh process's
/// global pool — a true cold-start at that width, not an in-process resize.
TEST(DatasetFactoryEmit, EmitWorker) {
  const char* out = std::getenv("QGNN_FACTORY_OUT");
  if (out == nullptr) {
    GTEST_SKIP() << "worker mode only (set QGNN_FACTORY_OUT)";
  }
  const char* ckpt = std::getenv("QGNN_FACTORY_CKPT");
  const char* stop = std::getenv("QGNN_FACTORY_STOP");
  ASSERT_NE(ckpt, nullptr);
  ASSERT_NE(stop, nullptr);
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = ckpt;
  factory.stop_after_shards = static_cast<std::size_t>(std::stoi(stop));
  factory.resume = true;  // no-op on the first run (no manifest yet)
  const bool finished =
      run_dataset_factory(tiny_config(), factory, out);
  ASSERT_EQ(finished, factory.stop_after_shards == 0);
}

TEST(DatasetFactory, KilledAndResumedRunsAreByteIdenticalAcrossThreads) {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const fs::path base = temp_dir("reexec");
  fs::remove_all(base);
  fs::create_directories(base);

  // Reference bytes from an uninterrupted in-process run.
  const fs::path ref = base / "ref.qds";
  ASSERT_TRUE(run_dataset_factory(tiny_config(), {}, ref.string()));
  const std::string expect = read_bytes(ref);

  for (const int threads : {1, 2, 8}) {
    const fs::path dir = base / ("t" + std::to_string(threads));
    const fs::path out = dir / "out.qds";
    const fs::path ckpt = dir / "ckpt";
    fs::create_directories(dir);
    auto worker = [&](int stop_after) {
      std::ostringstream cmd;
      cmd << "QGNN_NUM_THREADS=" << threads << " QGNN_FACTORY_OUT='"
          << out.string() << "' QGNN_FACTORY_CKPT='" << ckpt.string()
          << "' QGNN_FACTORY_STOP=" << stop_after << " '" << self.string()
          << "' --gtest_filter=DatasetFactoryEmit.EmitWorker >/dev/null 2>&1";
      return std::system(cmd.str().c_str());
    };
    // First process labels one shard and "dies"; the second resumes.
    ASSERT_EQ(worker(1), 0) << "threads=" << threads;
    ASSERT_FALSE(fs::exists(out));
    ASSERT_EQ(worker(0), 0) << "threads=" << threads;
    EXPECT_EQ(read_bytes(out), expect)
        << "kill+resume at threads=" << threads
        << " changed the output bytes";
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace qgnn
