#pragma once
/// \file cli.hpp
/// Tiny `--key=value` / `--flag` argument parser for benches and examples.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tmprof::util {

/// Strict number parsing shared by ArgParser and the benches' composite
/// flags (e.g. --tiers fields): the whole text must be the number, so
/// trailing garbage, an empty string, a sign on an unsigned value
/// (std::stoull would silently wrap "-1" to 2^64-1) and non-finite
/// doubles ("nan", "inf") all yield std::nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

/// Parses `--key=value` and bare `--flag` arguments. Positional arguments
/// are collected in order. Unknown keys are allowed (benches share configs).
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Throws std::invalid_argument naming the flag on input parse_u64
  /// rejects (malformed or negative).
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  /// Throws std::invalid_argument naming the flag on input parse_double
  /// rejects (malformed or non-finite).
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// get_double restricted to [lo, hi]; out-of-range values (e.g. a
  /// negative --fault-rate) throw std::invalid_argument naming the flag.
  [[nodiscard]] double get_checked_double(const std::string& key,
                                          double fallback, double lo,
                                          double hi) const;
  /// Probability flag: a double in [0, 1].
  [[nodiscard]] double get_rate(const std::string& key, double fallback) const {
    return get_checked_double(key, fallback, 0.0, 1.0);
  }
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace tmprof::util
