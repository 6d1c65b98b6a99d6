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
        options_[arg.substr(2)].value = "true";
      } else {
        options_[arg.substr(2, eq - 2)].value = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

const std::string* ArgParser::find(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  if (!it->second.read) it->second.read = true;
  return &it->second.value;
}

bool ArgParser::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  if (const std::optional<std::uint64_t> parsed = parse_u64(*value)) {
    return *parsed;
  }
  throw std::invalid_argument("--" + key +
                              " expects an unsigned integer, got '" + *value +
                              "'");
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  if (const std::optional<double> parsed = parse_double(*value)) {
    return *parsed;
  }
  throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                              *value + "'");
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
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ArgParser: bad boolean for --" + key + ": " + v);
}

void ArgParser::reject_unread() const {
  for (const auto& [key, option] : options_) {
    if (!option.read) {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
}

}  // namespace tmprof::util
