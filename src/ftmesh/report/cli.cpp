#include "ftmesh/report/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace ftmesh::report {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    Entry e;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      e.key = arg.substr(2, eq - 2);
      e.value = arg.substr(eq + 1);
      e.has_value = true;
    } else {
      e.key = arg.substr(2);
      // A following token that is not itself an option becomes the value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        e.value = argv[++i];
        e.has_value = true;
      }
    }
    entries_.push_back(std::move(e));
  }
}

bool Cli::flag(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.key == name) return true;
  }
  return false;
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  for (const auto& e : entries_) {
    if (e.key == name && e.has_value) return e.value;
  }
  return fallback;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  return get_int_as<std::int64_t>(name, fallback);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name, "");
  if (v.empty()) return fallback;
  try {
    return core::parse_real(v);
  } catch (const core::NumberFormatError& e) {
    throw std::invalid_argument("--" + name + ": " + e.what());
  }
}

bool Cli::full_scale() const {
  if (flag("full")) return true;
  const char* env = std::getenv("FTMESH_FULL");
  return env != nullptr && std::string(env) == "1";
}

}  // namespace ftmesh::report
