#pragma once

// Result assembly: named metrics with units, order statistics, and the
// one-line JSON result the benchmark prints last.

#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

/// True when `name` is 1..64 characters of letters, digits, '_', '.'
/// and '-', starting with a letter or digit: the charset every printed
/// metric name must use.
bool valid_name(const std::string& name);

/// The metrics the final result line carries: every end-to-end metric
/// of an untraced run, every layer metric of a traced run. The same
/// names, in the same order, as BENCHMARK.json.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Quantile q in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Shortest decimal text that reads back as exactly `x`.
std::string number_text(double x);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sent/ok/failed counts of one measured phase.
struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

class Report {
 public:
  /// Add a metric; throws on an invalid or repeated name.
  void add(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;

  void add_phase(PhaseCount phase) { phases_.push_back(std::move(phase)); }
  /// Record a correctness failure; the run then exits non-zero.
  void fail_check(const std::string& what);

  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  const std::vector<PhaseCount>& phases() const { return phases_; }

  /// attempted / failed over every measured phase.
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  /// `{"phases":[{"name":..,"sent":..,"ok":..,"failed":..},..]}`.
  std::string phases_json() const;
  /// The final line: `{"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..},..}}` restricted to `names`
  /// (all metrics when `names` is empty), in the order given.
  std::string result_json(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<PhaseCount> phases_;
  std::vector<std::string> check_failures_;
};

}  // namespace qbench
