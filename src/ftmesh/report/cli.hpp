#pragma once
// Tiny command-line option parser shared by the bench binaries and
// examples.  Supports `--flag`, `--key value` and `--key=value`; every
// bench also honours FTMESH_FULL=1 as an alias of --full (paper-scale
// runs).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftmesh/core/parse_number.hpp"

namespace ftmesh::report {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--name` was passed.
  [[nodiscard]] bool flag(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The value of `--name` as an integer / a real, or `fallback` when the
  /// option is absent.  The whole value must parse: "4x" or an integer
  /// beyond 64 bits throws std::invalid_argument naming the option.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// get_int narrowed to T: a value outside T's range ("--length -1" for an
  /// unsigned length) throws std::invalid_argument instead of wrapping.  An
  /// absent option returns `fallback` unchanged.
  template <typename T>
  [[nodiscard]] T get_int_as(const std::string& name, T fallback) const {
    const auto v = get(name, "");
    if (v.empty()) return fallback;
    try {
      return core::parse_integer<T>(v);
    } catch (const core::NumberFormatError& e) {
      throw std::invalid_argument("--" + name + ": " + e.what());
    }
  }

  /// --full flag or FTMESH_FULL=1: run the paper-scale configuration.
  [[nodiscard]] bool full_scale() const;

  /// Unrecognised positional arguments (no leading --).
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool has_value = false;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace ftmesh::report
