// The declarative flag parser every bwpart tool and bench uses. A program
// declares each flag once (name, target variable, kind, help text) and the
// table yields both the parse and the usage. A flag takes its value as the
// next argument; given twice, the last value wins. Numbers are strict: an
// unsigned flag takes plain decimal digits (no sign, suffix or exponent)
// inside its inclusive range. The first problem (an unknown flag, a missing
// value, a malformed or out-of-range number, a value given to a switch)
// prints one line naming the flag, then the usage, and exits with status 2.
// A target's value before the parse is its default; the usage shows it.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bwpart::cli {

/// An unsigned integer or a real, in the usage's notation.
template <typename T>
std::string num(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }
}

/// Parses `text` into `out` as a number in [lo, hi]: for an unsigned `T`
/// plain decimal digits, for double any finite real. Returns "" or the
/// problem; `out` changes only on success.
template <typename T>
  requires std::unsigned_integral<T> || std::same_as<T, double>
std::string parse_number(std::string_view text, std::type_identity_t<T> lo,
                         std::type_identity_t<T> hi, T& out) {
  // Appended rather than built with operator+: GCC 12 at -O3 reports a
  // false -Werror=restrict overlap in the inlined concatenation.
  std::string quoted = "'";
  quoted += text;
  quoted += '\'';
  T v{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (end != last ||
      (ec != std::errc() && ec != std::errc::result_out_of_range)) {
    return quoted + (std::is_integral_v<T> ? " is not an unsigned integer"
                                           : " is not a number");
  }
  // Overflow, and NaN for a real, fail the range check too.
  if (ec != std::errc() || !(v >= lo && v <= hi)) {
    return quoted + " is out of range [" + num(lo) + ", " + num(hi) + "]";
  }
  out = v;
  return {};
}

class Parser {
 public:
  /// `program` names the binary in every message and in the usage.
  explicit Parser(std::string program) : program_(std::move(program)) {}

  /// A switch: present sets `target`.
  void flag(std::string name, bool& target, std::string help);
  /// Any string; `meta` names the value in the usage (FILE, NAME, ...).
  void text(std::string name, std::string& target, std::string meta,
            std::string help);
  /// An unsigned integer, or with a double target a real, in [lo, hi].
  template <typename T>
  void number(std::string name, T& target, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi, std::string help,
              std::string meta = "N") {
    help += " [" + num(lo) + ", " + num(hi) + "] (default " + num(target) +
            ")";
    add(std::move(name), std::move(meta), std::move(help),
        [&target, lo, hi](std::string_view v) {
          return parse_number<T>(v, lo, hi, target);
        });
  }
  /// A comma list of unsigned integers, each in [lo, hi], replacing
  /// `target` whole.
  void uint_list(std::string name, std::vector<std::uint64_t>& target,
                 std::uint64_t lo, std::uint64_t hi, std::string meta,
                 std::string help);

  /// Assigns the flags in `args` (argv without the program name). Returns
  /// "" or the first problem, e.g. "--cycles: '10k' is not an unsigned
  /// integer".
  std::string try_parse(std::span<const char* const> args) const;
  /// try_parse over argv; on a problem, fail()s.
  void parse(int argc, const char* const* argv) const;
  /// Prints "program: message" and the usage, then exits with status 2.
  /// Also serves the checks a program makes after parsing.
  [[noreturn]] void fail(std::string_view message) const;
  /// The usage text generated from the table.
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string meta;  ///< empty for a switch
    std::string help;
    std::function<std::string(std::string_view)> assign;  ///< "" or problem
  };

  void add(std::string name, std::string meta, std::string help,
           std::function<std::string(std::string_view)> assign);
  const Flag* find(std::string_view name) const;

  std::string program_;
  std::vector<Flag> flags_;
};

}  // namespace bwpart::cli
