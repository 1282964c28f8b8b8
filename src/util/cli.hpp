#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace qgnn {

/// Minimal command-line flag parser for the bench/example binaries.
/// Accepts `--key=value`, `--key value`, and bare `--flag` (boolean true).
/// Unknown positional arguments are collected in order. Every lookup
/// (has/get*) records its key, so a binary can reject the flags it never
/// read (typos, retired options) instead of silently ignoring them.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Flags present on the command line that no lookup has asked for yet,
  /// in key order.
  std::vector<std::string> unread() const;

 private:
  /// The value of `key` (nullptr when absent); records the key as read.
  const std::string* find(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// True when the environment requests paper-scale runs (QGNN_FULL=1) or the
/// command line contains --full.
bool full_scale_requested(const CliArgs& args);

}  // namespace qgnn
