#include "util/cli.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace qgnn {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const std::string* CliArgs::find(const std::string& key) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  try {
    return std::stoi(*value);
  } catch (const std::exception&) {
    throw InvalidArgument("flag --" + key + " is not an integer: " + *value);
  }
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw InvalidArgument("flag --" + key + " is not a number: " + *value);
  }
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : flags_) {
    if (read_.count(key) == 0) keys.push_back(key);
  }
  return keys;
}

bool full_scale_requested(const CliArgs& args) {
  if (args.get_bool("full", false)) return true;
  const char* env = std::getenv("QGNN_FULL");
  return env != nullptr && std::string(env) == "1";
}

}  // namespace qgnn
