#include "util/cli.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace tmprof::util {

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  // stoull skips leading whitespace and accepts (and wraps) a sign, so
  // demand a leading digit.
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return std::nullopt;
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(text, &pos);
    if (pos != text.size()) return std::nullopt;
    return parsed;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(parsed)) return std::nullopt;
    return parsed;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        options_[arg.substr(2)] = "true";
      } else {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  return options_.count(key) != 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (const std::optional<std::uint64_t> parsed = parse_u64(it->second)) {
    return *parsed;
  }
  throw std::invalid_argument("--" + key +
                              " expects an unsigned integer, got '" +
                              it->second + "'");
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (const std::optional<double> parsed = parse_double(it->second)) {
    return *parsed;
  }
  throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                              it->second + "'");
}

double ArgParser::get_checked_double(const std::string& key, double fallback,
                                     double lo, double hi) const {
  const double value = get_double(key, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + key + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ArgParser: bad boolean for --" + key + ": " + v);
}

}  // namespace tmprof::util
