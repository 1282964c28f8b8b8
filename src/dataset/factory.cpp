#include "dataset/factory.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "dataset/packed.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace fs = std::filesystem;

namespace {

// Registry handles cached once, so the per-item labelling hook never
// takes the registry mutex.
obs::Counter& graphs_labeled_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      obs::names::kDatasetGraphsLabeled);
  return c;
}

obs::LatencyHistogram& label_wave_histogram() {
  static obs::LatencyHistogram& h = obs::MetricsRegistry::global().histogram(
      obs::names::kDatasetLabelWaveUs);
  return h;
}

obs::LatencyHistogram& shard_commit_histogram() {
  static obs::LatencyHistogram& h = obs::MetricsRegistry::global().histogram(
      obs::names::kDatasetShardCommitUs);
  return h;
}

// ---------------------------------------------------------------------------
// Resume manifest: a small line-oriented text file committed (atomically,
// temp + rename) after every shard, recording which record ranges are
// already on disk.

struct ManifestShard {
  std::string file;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct Manifest {
  std::uint64_t fingerprint = 0;
  std::uint64_t total = 0;
  std::uint64_t committed = 0;
  std::vector<ManifestShard> shards;
};

constexpr const char* kManifestHeader = "qgnn-factory-manifest v1";
constexpr const char* kManifestName = "manifest.txt";

void write_manifest(const fs::path& dir, const Manifest& m) {
  const fs::path path = dir / kManifestName;
  const fs::path tmp = dir / (std::string(kManifestName) + ".tmp");
  {
    std::ofstream out(tmp);
    if (!out) throw IoError("cannot write manifest: " + tmp.string());
    out << kManifestHeader << '\n';
    out << "fingerprint " << m.fingerprint << '\n';
    out << "total " << m.total << '\n';
    out << "committed " << m.committed << '\n';
    for (const ManifestShard& s : m.shards) {
      out << "shard " << s.file << ' ' << s.begin << ' ' << s.end << '\n';
    }
    if (!out.flush()) {
      throw IoError("manifest write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw IoError("cannot rename " + tmp.string() + " to " + path.string() +
                  ": " + ec.message());
  }
}

Manifest read_manifest(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open manifest: " + path.string());
  auto bad = [&](int line_no, const std::string& reason) -> IoError {
    return IoError(path.string() + ":" + std::to_string(line_no) + ": " +
                   reason);
  };

  Manifest m;
  std::string line;
  int line_no = 1;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw bad(1, "bad manifest header (expected '" +
                     std::string(kManifestHeader) + "')");
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "fingerprint") {
      if (!(is >> m.fingerprint)) throw bad(line_no, "bad fingerprint line");
    } else if (key == "total") {
      if (!(is >> m.total)) throw bad(line_no, "bad total line");
    } else if (key == "committed") {
      if (!(is >> m.committed)) throw bad(line_no, "bad committed line");
    } else if (key == "shard") {
      ManifestShard s;
      if (!(is >> s.file >> s.begin >> s.end) || s.end < s.begin) {
        throw bad(line_no, "bad shard line");
      }
      m.shards.push_back(std::move(s));
    } else {
      throw bad(line_no, "unknown manifest key '" + key + "'");
    }
  }
  return m;
}

/// Validate a resumed manifest against the current run and load every
/// committed record back into `entries`. Throws IoError with a pointed
/// message on any inconsistency — resuming must never silently relabel or
/// mix configs.
void restore_from_manifest(const Manifest& m, const fs::path& dir,
                           const DatasetGenConfig& config,
                           std::vector<DatasetEntry>& entries) {
  const fs::path path = dir / kManifestName;
  if (m.fingerprint != dataset_config_fingerprint(config)) {
    throw IoError(path.string() +
                  ": manifest was written by a different generation config "
                  "(fingerprint mismatch); not resuming");
  }
  if (m.total != entries.size()) {
    throw IoError(path.string() + ": manifest total " +
                  std::to_string(m.total) + " does not match configured " +
                  std::to_string(entries.size()) + " instances");
  }
  std::uint64_t expect_begin = 0;
  for (const ManifestShard& s : m.shards) {
    if (s.begin != expect_begin || s.end > m.committed) {
      throw IoError(path.string() + ": shard list is not contiguous at '" +
                    s.file + "'");
    }
    expect_begin = s.end;
    const fs::path shard_path = dir / s.file;
    std::vector<DatasetEntry> shard = load_packed_dataset(shard_path.string());
    if (shard.size() != s.end - s.begin) {
      throw IoError(shard_path.string() + ": shard holds " +
                    std::to_string(shard.size()) + " records, manifest says " +
                    std::to_string(s.end - s.begin));
    }
    for (std::size_t i = 0; i < shard.size(); ++i) {
      entries[static_cast<std::size_t>(s.begin) + i] = std::move(shard[i]);
    }
  }
  if (expect_begin != m.committed) {
    throw IoError(path.string() + ": shards cover " +
                  std::to_string(expect_begin) + " records, manifest claims " +
                  std::to_string(m.committed) + " committed");
  }
}

std::string shard_filename(std::size_t index) {
  std::ostringstream os;
  os << "shard_";
  os.width(6);
  os.fill('0');
  os << index << ".qds";
  return os.str();
}

}  // namespace

std::uint64_t dataset_config_fingerprint(const DatasetGenConfig& config) {
  std::ostringstream os;
  os << "qgnn-dataset-v1|" << config.num_instances << '|' << config.min_nodes
     << '|' << config.max_nodes << '|' << config.min_degree << '|'
     << config.max_degree << '|' << config.depth << '|'
     << config.optimizer_evaluations << '|'
     << static_cast<int>(config.optimizer) << '|'
     << (config.symmetrize_labels ? 1 : 0) << '|' << config.seed;
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool run_dataset_factory(const DatasetGenConfig& config,
                         const FactoryConfig& factory,
                         const std::string& out_path,
                         const ProgressFn& progress) {
  std::vector<DatasetEntry> entries = draw_dataset_instances(config);
  const std::size_t total = entries.size();
  const bool obs_on = obs::enabled();

  int labelled = 0;
  const std::function<void()> on_labelled = [&] {
    if (obs_on) graphs_labeled_counter().add(1);
    ++labelled;
    if (progress) progress(labelled, static_cast<int>(total));
  };

  if (factory.checkpoint_every <= 0) {
    obs::ScopedTimer wave_timer(obs_on ? &label_wave_histogram() : nullptr);
    label_dataset_entries(config, entries, 0, total, on_labelled);
    save_packed_dataset(out_path, entries);
    return true;
  }

  QGNN_REQUIRE(!factory.checkpoint_dir.empty(),
               "checkpointing requires FactoryConfig::checkpoint_dir");
  const fs::path dir(factory.checkpoint_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create checkpoint directory: " + dir.string());
  }

  Manifest m;
  m.fingerprint = dataset_config_fingerprint(config);
  m.total = total;
  if (factory.resume && fs::exists(dir / kManifestName)) {
    m = read_manifest(dir / kManifestName);
    restore_from_manifest(m, dir, config, entries);
    labelled = static_cast<int>(m.committed);
  } else {
    write_manifest(dir, m);  // fresh run: commit the empty state up front
  }

  const auto every = static_cast<std::size_t>(factory.checkpoint_every);
  int committed_this_run = 0;
  for (std::size_t wave_lo = static_cast<std::size_t>(m.committed);
       wave_lo < total; wave_lo += every) {
    const std::size_t wave_hi = std::min(total, wave_lo + every);
    {
      obs::ScopedTimer wave_timer(obs_on ? &label_wave_histogram() : nullptr);
      label_dataset_entries(config, entries, wave_lo, wave_hi, on_labelled);
    }
    {
      obs::ScopedTimer commit_timer(obs_on ? &shard_commit_histogram()
                                           : nullptr);
      const std::string shard = shard_filename(m.shards.size());
      save_packed_dataset(
          (dir / shard).string(),
          std::vector<DatasetEntry>(
              entries.begin() + static_cast<std::ptrdiff_t>(wave_lo),
              entries.begin() + static_cast<std::ptrdiff_t>(wave_hi)));
      m.shards.push_back({shard, wave_lo, wave_hi});
      m.committed = wave_hi;
      write_manifest(dir, m);
    }
    ++committed_this_run;
    if (factory.stop_after_shards > 0 &&
        committed_this_run >= factory.stop_after_shards && wave_hi < total) {
      return false;  // simulated kill: manifest committed, final file not
    }
  }

  save_packed_dataset(out_path, entries);
  return true;
}

}  // namespace qgnn
