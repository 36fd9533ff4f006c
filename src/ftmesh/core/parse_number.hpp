#pragma once
// Whole-string number parsing for the input surfaces (config files and
// command-line options).  The text must be one number and nothing else, and
// it must fit the target type: std::stoi and friends accept a prefix ("4x"
// reads as 4), and a narrowing cast wraps ("-1" as a length becomes
// 4294967295).  These throw instead.

#include <charconv>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ftmesh::core {

/// Thrown by parse_integer / parse_real; what() quotes the rejected text.
class NumberFormatError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The whole of `text` as a T, or NumberFormatError: trailing characters,
/// a sign on an unsigned T and values outside T's range are all rejected.
template <typename T>
T parse_integer(const std::string& text) {
  static_assert(std::is_integral_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw NumberFormatError("out of range: '" + text + "'");
  }
  if (ec != std::errc{} || ptr != end) {
    throw NumberFormatError(
        std::string(std::is_signed_v<T> ? "not an integer"
                                        : "not a non-negative integer") +
        ": '" + text + "'");
  }
  return value;
}

/// The whole of `text` as a double, or NumberFormatError.
inline double parse_real(const std::string& text) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw NumberFormatError("not a number: '" + text + "'");
  }
  return value;
}

}  // namespace ftmesh::core
