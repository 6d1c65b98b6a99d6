#include "util/ckpt.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

#include "util/assert.hpp"

namespace tmprof::util::ckpt {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
constexpr const char* kHeaderSection = "<header>";
constexpr const char* kIoSection = "<io>";

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ bytes[i]) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

// ---------------------------------------------------------------------------
// Writer

Writer::Writer() {
  buffer_.reserve(4096);
  for (const char c : kMagic) buffer_.push_back(static_cast<std::uint8_t>(c));
  put_le(kFormatVersion);
}

void Writer::begin_section(std::string_view name) {
  TMPROF_EXPECTS(!in_section_);
  TMPROF_EXPECTS(!name.empty());
  section_name_.assign(name);
  put_le(static_cast<std::uint32_t>(name.size()));
  buffer_.insert(buffer_.end(), name.begin(), name.end());
  // Payload length back-patched in end_section(); reserve the slot now.
  put_le(static_cast<std::uint64_t>(0));
  section_start_ = buffer_.size();
  in_section_ = true;
}

void Writer::end_section() {
  TMPROF_EXPECTS(in_section_);
  const std::size_t payload = buffer_.size() - section_start_;
  const std::size_t len_slot = section_start_ - sizeof(std::uint64_t);
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    buffer_[len_slot + i] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(payload) >>
                                  (8 * i));
  }
  put_le(crc32(buffer_.data() + section_start_, payload));
  in_section_ = false;
}

void Writer::put_str(std::string_view s) {
  put_le(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::put_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

std::vector<std::uint8_t> Writer::finish() {
  if (in_section_) end_section();
  return std::move(buffer_);
}

void Writer::save_atomic(const std::string& path,
                         const std::vector<std::uint8_t>& image) {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw CkptError(kIoSection, "cannot open '" + tmp + "' for writing");
    }
    const std::size_t written =
        image.empty() ? 0 : std::fwrite(image.data(), 1, image.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != image.size() || !flushed) {
      std::remove(tmp.c_str());
      throw CkptError(kIoSection, "short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw CkptError(kIoSection,
                    "rename '" + tmp + "' -> '" + path + "': " + ec.message());
  }
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::vector<std::uint8_t> image) : image_(std::move(image)) {
  current_ = kHeaderSection;
  if (image_.size() < kHeaderSize) {
    throw CkptError(kHeaderSection, "file too small for header (" +
                                        std::to_string(image_.size()) +
                                        " bytes)");
  }
  if (std::memcmp(image_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CkptError(kHeaderSection, "bad magic (not a tmprof checkpoint)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, image_.data() + sizeof(kMagic), sizeof(version));
  if (version != kFormatVersion) {
    throw CkptError(kHeaderSection,
                    "format version " + std::to_string(version) +
                        " != supported " + std::to_string(kFormatVersion));
  }

  // Walk and validate every section frame before serving any reads: a
  // truncated or bit-flipped file must be rejected wholesale, never
  // half-loaded.
  std::size_t pos = kHeaderSize;
  cursor_ = pos;
  section_end_ = image_.size();
  while (pos < image_.size()) {
    cursor_ = pos;
    const std::uint32_t name_len = get_le<std::uint32_t>();
    if (name_len == 0 || name_len > 4096 ||
        name_len > image_.size() - cursor_) {
      throw CkptError(sections_.empty() ? kHeaderSection
                                        : sections_.back().name,
                      "corrupt section frame after offset " +
                          std::to_string(pos));
    }
    std::string name(reinterpret_cast<const char*>(image_.data() + cursor_),
                     name_len);
    cursor_ += name_len;
    current_ = name;
    const std::uint64_t payload_len = get_le<std::uint64_t>();
    if (payload_len > image_.size() - cursor_) {
      throw CkptError(name, "truncated: payload needs " +
                                std::to_string(payload_len) +
                                " bytes, file has " +
                                std::to_string(image_.size() - cursor_));
    }
    const std::size_t payload_off = cursor_;
    cursor_ += static_cast<std::size_t>(payload_len);
    if (image_.size() - cursor_ < sizeof(std::uint32_t)) {
      throw CkptError(name, "truncated: missing checksum");
    }
    const std::uint32_t stored = get_le<std::uint32_t>();
    const std::uint32_t computed =
        crc32(image_.data() + payload_off, static_cast<std::size_t>(payload_len));
    if (stored != computed) {
      throw CkptError(name, "checksum mismatch (corrupt payload)");
    }
    sections_.push_back(
        {std::move(name), payload_off, static_cast<std::size_t>(payload_len)});
    pos = cursor_;
  }
  current_.clear();
  cursor_ = 0;
  section_end_ = 0;
}

Reader Reader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CkptError(kIoSection, "cannot open '" + path + "'");
  }
  std::vector<std::uint8_t> image;
  std::array<std::uint8_t, 65536> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    image.insert(image.end(), chunk.begin(), chunk.begin() + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw CkptError(kIoSection, "read error on '" + path + "'");
  }
  return Reader(std::move(image));
}

bool Reader::has_section(std::string_view name) const {
  return find(name) != nullptr;
}

void Reader::enter_section(std::string_view name) {
  const Section* s = find(name);
  if (s == nullptr) {
    throw CkptError(std::string(name), "section missing from checkpoint");
  }
  current_ = s->name;
  cursor_ = s->offset;
  section_end_ = s->offset + s->size;
}

void Reader::end_section() {
  if (cursor_ != section_end_) {
    throw CkptError(current_,
                    std::to_string(section_end_ - cursor_) +
                        " unread trailing bytes (writer/reader skew)");
  }
}

bool Reader::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) {
    throw CkptError(current_, "bool encoded as " + std::to_string(v));
  }
  return v != 0;
}

std::string Reader::get_str() {
  const std::uint32_t len = get_le<std::uint32_t>();
  require(len);
  std::string s(reinterpret_cast<const char*>(image_.data() + cursor_), len);
  cursor_ += len;
  return s;
}

void Reader::get_bytes(void* out, std::size_t size) {
  require(size);
  std::memcpy(out, image_.data() + cursor_, size);
  cursor_ += size;
}

std::uint64_t Reader::get_count(std::size_t min_bytes_each) {
  TMPROF_EXPECTS(min_bytes_each >= 1);
  const std::uint64_t count = get_u64();
  const std::size_t left = section_end_ - cursor_;
  if (count > left / min_bytes_each) {
    throw CkptError(current_.empty() ? kHeaderSection : current_,
                    "element count " + std::to_string(count) +
                        " does not fit the " + std::to_string(left) +
                        " bytes left in the section");
  }
  return count;
}

std::vector<std::string> Reader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

void Reader::require(std::size_t bytes) {
  if (bytes > section_end_ - cursor_) {
    throw CkptError(current_.empty() ? kHeaderSection : current_,
                    "read of " + std::to_string(bytes) +
                        " bytes overruns section (only " +
                        std::to_string(section_end_ - cursor_) + " left)");
  }
}

const Reader::Section* Reader::find(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Checkpoint directory management

namespace {

constexpr const char* kExtension = ".tmck";

/// Parse "<basename>-e<digits>.tmck"; returns epoch or npos-like failure.
bool parse_epoch(const std::string& filename, const std::string& basename,
                 std::uint32_t* epoch) {
  const std::string prefix = basename + "-e";
  if (filename.size() <= prefix.size() + std::strlen(kExtension)) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - std::strlen(kExtension),
                       std::strlen(kExtension), kExtension) != 0) {
    return false;
  }
  const std::string digits = filename.substr(
      prefix.size(),
      filename.size() - prefix.size() - std::strlen(kExtension));
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffULL) return false;
  }
  *epoch = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

std::string checkpoint_path(const std::string& dir, const std::string& basename,
                            std::uint32_t epoch) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08u", epoch);
  return dir + "/" + basename + "-e" + buf + kExtension;
}

std::vector<std::string> checkpoints_in(const std::string& dir,
                                        const std::string& basename) {
  std::error_code ec;
  std::vector<std::pair<std::uint32_t, std::string>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint32_t epoch = 0;
    if (parse_epoch(entry.path().filename().string(), basename, &epoch)) {
      found.emplace_back(epoch, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::string latest_in(const std::string& dir, const std::string& basename) {
  const std::vector<std::string> paths = checkpoints_in(dir, basename);
  return paths.empty() ? std::string() : paths.front();
}

void prune(const std::string& dir, const std::string& basename,
           std::uint32_t keep_last) {
  const std::vector<std::string> paths = checkpoints_in(dir, basename);
  std::error_code ec;
  for (std::size_t i = keep_last; i < paths.size(); ++i) {
    std::filesystem::remove(paths[i], ec);
  }
}

}  // namespace tmprof::util::ckpt
