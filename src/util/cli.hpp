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
/// are collected in order. has()/get*() mark the flag they find as read;
/// reject_unread() then refuses any flag the program never asked about.
/// Reads are safe from concurrent threads once each given flag has been
/// read once (later reads only test the mark).
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

  /// Throws std::invalid_argument naming the first flag (in key order)
  /// that no has()/get*() call has read, so a misspelt or retired flag
  /// fails instead of silently running the defaults. Call it once, after
  /// every flag the program takes has been read.
  void reject_unread() const;

 private:
  struct Option {
    std::string value;
    mutable bool read = false;
  };

  /// The value of flag `key` (marked read), or null when it was not given.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
};

}  // namespace tmprof::util
