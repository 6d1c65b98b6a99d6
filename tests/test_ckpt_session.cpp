/// The shared checkpointed epoch loop (run_epochs, tiering/epoch.hpp): the
/// on-disk section layout is pinned byte for byte, every saved section is
/// also loaded, `resume_latest` walks back through the retained files
/// before it starts cold, a rejected telemetry section restores nothing,
/// the retired streaming-transport markers reject a `true`, and the hotness
/// stores' marker rejects anything but exact counting.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hotness.hpp"
#include "monitors/ibs.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/epoch.hpp"
#include "tiering/runner.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {
namespace {

namespace fs = std::filesystem;
using Image = std::vector<std::uint8_t>;
using Sections = std::vector<std::pair<std::string, Image>>;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tmprof-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Image read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Image(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const Image& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Split a checkpoint image into its (name, payload) frames, in file order.
Sections split_sections(const Image& image) {
  const auto le = [&image](std::size_t at, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(image.at(at + i)) << (8 * i);
    }
    return v;
  };
  Sections out;
  std::size_t pos = sizeof util::ckpt::kMagic + sizeof(std::uint32_t);
  while (pos < image.size()) {
    const std::size_t name_len = le(pos, 4);
    std::string name(image.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                     image.begin() +
                         static_cast<std::ptrdiff_t>(pos + 4 + name_len));
    pos += 4 + name_len;
    const std::size_t len = le(pos, 8);
    pos += 8;
    out.emplace_back(std::move(name),
                     Image(image.begin() + static_cast<std::ptrdiff_t>(pos),
                           image.begin() +
                               static_cast<std::ptrdiff_t>(pos + len)));
    pos += len + 4;  // payload + CRC
  }
  return out;
}

/// Re-frame sections into a valid image (fresh CRCs).
Image join_sections(const Sections& sections) {
  util::ckpt::Writer w;
  for (const auto& [name, payload] : sections) {
    w.begin_section(name);
    w.put_bytes(payload.data(), payload.size());
    w.end_section();
  }
  return w.finish();
}

sim::SimConfig tiny_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 9;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

/// History policy with the admission gate on and the sharded engine, so
/// every runner section carries live state.
RunnerOptions gated_runner(std::uint32_t n_epochs) {
  RunnerOptions opt;
  opt.policy = "history";
  opt.n_epochs = n_epochs;
  opt.ops_per_epoch = 30000;
  opt.n_threads = 1;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  opt.mover.admission.mode = AdmissionMode::Static;
  opt.mover.admission.min_history = 1;
  opt.mover.admission.cooldown_epochs = 2;
  return opt;
}

CollectOptions small_collect(std::uint32_t n_epochs) {
  CollectOptions opt;
  opt.n_epochs = n_epochs;
  opt.ops_per_epoch = 30000;
  opt.n_threads = 1;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  return opt;
}

/// Bitwise rendering of a RunnerResult: doubles as hex floats.
std::string fingerprint(const RunnerResult& r) {
  std::ostringstream os;
  const auto f64 = [&os](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a,", v);
    os << buf;
  };
  os << r.runtime_ns << ',' << r.migrations << ',' << r.protection_faults
     << ',' << r.profiling_overhead_ns << ',';
  f64(r.tier1_hitrate);
  const MoveStats& m = r.moves;
  for (const std::uint64_t v :
       {m.promoted, m.demoted, m.retried, m.deferred, m.aborted, m.no_room,
        m.rejected, m.cooled, m.shed, m.moved_bytes, m.cost_ns,
        m.backoff_ns}) {
    os << v << ',';
  }
  const core::DegradeStats& d = r.degrade;
  for (const std::uint64_t v :
       {d.hwpc_wraps, d.scans_aborted, d.trace_dropped, d.rescaled_epochs,
        d.fallback_epochs, d.pinned_epochs, d.throttled_epochs,
        d.qos_fallback_epochs}) {
    os << v << ',';
  }
  for (const double h : r.process_hitrates) f64(h);
  return os.str();
}

Image series_image(const EpochSeries& series) {
  util::ckpt::Writer w;
  w.begin_section("series");
  save_series(w, series);
  w.end_section();
  return w.finish();
}

std::string exports_of(const telemetry::Telemetry& t) {
  std::ostringstream os;
  t.write_prometheus(os);
  t.write_chrome(os);
  return os.str();
}

/// Number of non-overlapping occurrences of `needle` in `haystack`.
std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

std::string rejected_in(const std::string& section) {
  return "rejected in section '" + section + "'";
}

// ---------------------------------------------------------------------------
// Golden layout: the section lists and whole-image CRCs of one small runner
// checkpoint and one small collect checkpoint. Any change to a section's
// name, order or payload encoding moves these constants.

constexpr std::uint32_t kRunnerImageCrc = 0x7541416cU;
constexpr std::uint32_t kCollectImageCrc = 0x09656306U;

TEST(CkptGolden, SectionListsAndImageCrcsArePinned) {
  const auto spec = workloads::find_spec("gups", 0.05);

  const fs::path runner_dir = fresh_dir("golden-runner");
  telemetry::Telemetry sink{telemetry::TelemetryConfig{}};
  RunnerOptions run = gated_runner(3);
  run.telemetry = &sink;
  run.checkpoint.every = 2;
  run.checkpoint.dir = runner_dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), run);
  const Image runner_image = read_file(
      util::ckpt::checkpoint_path(runner_dir.string(), "ckpt", 2));
  ASSERT_FALSE(runner_image.empty());
  EXPECT_EQ(util::ckpt::Reader(runner_image).section_names(),
            (std::vector<std::string>{"meta", "system", "daemon", "devmon",
                                      "stream", "mover", "admission",
                                      "tenant", "policy", "trap", "oracle",
                                      "runner", "telemetry"}));

  const fs::path collect_dir = fresh_dir("golden-collect");
  CollectOptions collect = small_collect(3);
  collect.checkpoint.every = 2;
  collect.checkpoint.dir = collect_dir.string();
  (void)collect_series(spec, tiny_config(), collect);
  const Image collect_image = read_file(
      util::ckpt::checkpoint_path(collect_dir.string(), "ckpt", 2));
  ASSERT_FALSE(collect_image.empty());
  EXPECT_EQ(util::ckpt::Reader(collect_image).section_names(),
            (std::vector<std::string>{"meta", "system", "daemon", "truth",
                                      "series", "telemetry"}));

  const std::uint32_t runner_crc =
      util::ckpt::crc32(runner_image.data(), runner_image.size());
  const std::uint32_t collect_crc =
      util::ckpt::crc32(collect_image.data(), collect_image.size());
  char got[64];
  std::snprintf(got, sizeof got, "runner 0x%08" PRIx32 " collect 0x%08" PRIx32,
                runner_crc, collect_crc);
  EXPECT_EQ(runner_crc, kRunnerImageCrc) << got;
  EXPECT_EQ(collect_crc, kCollectImageCrc) << got;
}

// ---------------------------------------------------------------------------
// Section-table symmetry: every saved section is also loaded. Dropping any
// one section must reject the image naming exactly that section, and the
// cold start must match a run that never resumed.

TEST(CkptSymmetry, EveryRunnerSectionIsLoaded) {
  const auto spec = workloads::find_spec("gups", 0.05);
  telemetry::Telemetry reference_sink{telemetry::TelemetryConfig{}};
  RunnerOptions plain = gated_runner(3);
  plain.telemetry = &reference_sink;
  const std::string reference =
      fingerprint(EndToEndRunner::run(spec, tiny_config(), plain));

  const fs::path dir = fresh_dir("symmetry-runner");
  telemetry::Telemetry ckpt_sink{telemetry::TelemetryConfig{}};
  RunnerOptions ckpt = plain;
  ckpt.telemetry = &ckpt_sink;
  ckpt.checkpoint.every = 2;
  ckpt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), ckpt);
  const Sections sections = split_sections(
      read_file(util::ckpt::checkpoint_path(dir.string(), "ckpt", 2)));
  ASSERT_EQ(sections.size(), 13U);

  for (std::size_t drop = 0; drop < sections.size(); ++drop) {
    const std::string& name = sections[drop].first;
    Sections kept = sections;
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(drop));
    const std::string path = (dir / ("without-" + name + ".tmck")).string();
    write_file(path, join_sections(kept));

    telemetry::Telemetry sink{telemetry::TelemetryConfig{}};
    RunnerOptions resume = plain;
    resume.telemetry = &sink;
    resume.checkpoint.resume_from = path;
    ::testing::internal::CaptureStderr();
    const std::string got =
        fingerprint(EndToEndRunner::run(spec, tiny_config(), resume));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(count_of(log, rejected_in(name)), 1U) << name << ": " << log;
    EXPECT_EQ(got, reference) << name;
    EXPECT_EQ(exports_of(sink), exports_of(reference_sink)) << name;
  }
}

TEST(CkptSymmetry, EveryCollectSectionIsLoaded) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const Image reference =
      series_image(collect_series(spec, tiny_config(), small_collect(3)));

  const fs::path dir = fresh_dir("symmetry-collect");
  CollectOptions ckpt = small_collect(3);
  ckpt.checkpoint.every = 2;
  ckpt.checkpoint.dir = dir.string();
  (void)collect_series(spec, tiny_config(), ckpt);
  const Sections sections = split_sections(
      read_file(util::ckpt::checkpoint_path(dir.string(), "ckpt", 2)));
  ASSERT_EQ(sections.size(), 6U);

  for (std::size_t drop = 0; drop < sections.size(); ++drop) {
    const std::string& name = sections[drop].first;
    Sections kept = sections;
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(drop));
    const std::string path = (dir / ("without-" + name + ".tmck")).string();
    write_file(path, join_sections(kept));

    CollectOptions resume = small_collect(3);
    resume.checkpoint.resume_from = path;
    ::testing::internal::CaptureStderr();
    const Image got =
        series_image(collect_series(spec, tiny_config(), resume));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(count_of(log, rejected_in(name)), 1U) << name << ": " << log;
    EXPECT_EQ(got, reference) << name;
  }
}

// ---------------------------------------------------------------------------
// resume_latest walk-back: a rejected newest file falls back to the next
// older retained checkpoint; only when every retained file is rejected
// does the run start cold.

struct WalkBack {
  std::string reference;
  std::vector<std::string> files;  ///< retained checkpoints, oldest first
  fs::path dir;
};

WalkBack checkpointed_run(const std::string& name) {
  const auto spec = workloads::find_spec("gups", 0.05);
  WalkBack out;
  out.reference =
      fingerprint(EndToEndRunner::run(spec, tiny_config(), gated_runner(7)));
  out.dir = fresh_dir(name);
  RunnerOptions opt = gated_runner(7);
  opt.checkpoint.every = 2;
  opt.checkpoint.keep_last = 3;
  opt.checkpoint.dir = out.dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), opt);
  for (const std::uint32_t epoch : {2U, 4U, 6U}) {
    out.files.push_back(
        util::ckpt::checkpoint_path(out.dir.string(), "ckpt", epoch));
  }
  return out;
}

/// Flip one payload bit in `path`; returns the section the CRC now names.
std::string corrupt(const std::string& path) {
  Image image = read_file(path);
  image[image.size() / 2] ^= 0x10;
  write_file(path, image);
  try {
    (void)util::ckpt::Reader(image);
  } catch (const util::ckpt::CkptError& err) {
    return err.section();
  }
  ADD_FAILURE() << "bit flip in " << path << " not detected";
  return "";
}

/// Resume `resume_latest` from `dir`; returns (fingerprint, first epoch
/// reported by on_epoch, captured stderr).
std::tuple<std::string, std::uint32_t, std::string> resume_latest(
    const fs::path& dir) {
  const auto spec = workloads::find_spec("gups", 0.05);
  RunnerOptions opt = gated_runner(7);
  opt.checkpoint.dir = dir.string();
  opt.checkpoint.resume_latest = true;
  std::uint32_t first = ~0U;
  opt.on_epoch = [&first](std::uint32_t e) {
    if (first == ~0U) first = e;
  };
  ::testing::internal::CaptureStderr();
  std::string got = fingerprint(EndToEndRunner::run(spec, tiny_config(), opt));
  return {std::move(got), first, ::testing::internal::GetCapturedStderr()};
}

TEST(CkptResume, LatestWalksBackPastCorruptNewest) {
  const WalkBack run = checkpointed_run("walkback");
  for (const std::string& file : run.files) ASSERT_TRUE(fs::exists(file));
  const std::string bad_section = corrupt(run.files.back());

  const auto [got, first_epoch, log] = resume_latest(run.dir);
  EXPECT_EQ(first_epoch, 4U);  // resumed from ckpt-e4, the next-older file
  EXPECT_EQ(got, run.reference);
  EXPECT_EQ(count_of(log, "rejected in section"), 1U) << log;
  EXPECT_EQ(count_of(log, rejected_in(bad_section)), 1U) << log;
  EXPECT_NE(log.find(run.files.back()), std::string::npos) << log;
}

TEST(CkptResume, LatestAllRetainedCorruptStartsCold) {
  const WalkBack run = checkpointed_run("walkback-all");
  for (const std::string& file : run.files) (void)corrupt(file);

  const auto [got, first_epoch, log] = resume_latest(run.dir);
  EXPECT_EQ(first_epoch, 0U);
  EXPECT_EQ(got, run.reference);
  EXPECT_EQ(count_of(log, "rejected in section"), 3U) << log;
  for (const std::string& file : run.files) {
    EXPECT_NE(log.find(file), std::string::npos) << file;
  }
}

// ---------------------------------------------------------------------------
// Staged telemetry restore: a CRC-valid telemetry section whose histogram
// shape is invalid must leave the sink untouched, so the cold start exports
// exactly what a fresh run exports.

TEST(CkptTelemetry, RejectedSectionRestoresNothing) {
  const auto spec = workloads::find_spec("gups", 0.05);
  telemetry::Telemetry fresh{telemetry::TelemetryConfig{}};
  RunnerOptions plain = gated_runner(3);
  plain.telemetry = &fresh;
  (void)EndToEndRunner::run(spec, tiny_config(), plain);

  const fs::path dir = fresh_dir("staged-telemetry");
  telemetry::Telemetry ckpt_sink{telemetry::TelemetryConfig{}};
  RunnerOptions ckpt = plain;
  ckpt.telemetry = &ckpt_sink;
  ckpt.checkpoint.every = 2;
  ckpt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), ckpt);
  Sections sections = split_sections(
      read_file(util::ckpt::checkpoint_path(dir.string(), "ckpt", 2)));
  ASSERT_EQ(sections.back().first, "telemetry");

  // Valid counters and gauges, then a histogram with hi <= lo.
  util::ckpt::Writer w;
  w.begin_section("telemetry");
  w.put_bool(true);
  w.put_u64(1);
  w.put_str("runner_epochs_total");
  w.put_u64(1000);
  w.put_u64(1);
  w.put_str("mover_deferred_queue");
  w.put_u64(77);
  w.put_u64(1);
  w.put_str("bogus_latency_ns");
  w.put_u64(10);
  w.put_u64(10);
  w.put_u64(4);
  w.end_section();
  sections.back().second = split_sections(w.finish()).front().second;
  const std::string path = (dir / "bad-histogram.tmck").string();
  write_file(path, join_sections(sections));

  telemetry::Telemetry sink{telemetry::TelemetryConfig{}};
  RunnerOptions resume = plain;
  resume.telemetry = &sink;
  resume.checkpoint.resume_from = path;
  ::testing::internal::CaptureStderr();
  (void)EndToEndRunner::run(spec, tiny_config(), resume);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(log, rejected_in("telemetry")), 1U) << log;
  EXPECT_EQ(exports_of(sink), exports_of(fresh));
}

// ---------------------------------------------------------------------------
// Retired streaming-transport markers: the runner's one-byte "stream"
// section and the IBS monitor's streaming flag are always written `false`.
// A CRC-valid image carrying `true` in either — a checkpoint from a build
// that had the streaming transport — must be rejected naming that section,
// and the cold start must match a run that never resumed.

struct MarkerRun {
  std::string reference;  ///< fingerprint of the uncheckpointed run
  std::string exports;    ///< its Prometheus + Chrome exports
  Sections sections;      ///< the epoch-2 checkpoint of the same run
  fs::path dir;
};

MarkerRun marker_run(const std::string& name) {
  const auto spec = workloads::find_spec("gups", 0.05);
  MarkerRun out;
  telemetry::Telemetry fresh{telemetry::TelemetryConfig{}};
  RunnerOptions plain = gated_runner(3);
  plain.telemetry = &fresh;
  out.reference = fingerprint(EndToEndRunner::run(spec, tiny_config(), plain));
  out.exports = exports_of(fresh);

  out.dir = fresh_dir(name);
  telemetry::Telemetry ckpt_sink{telemetry::TelemetryConfig{}};
  RunnerOptions ckpt = plain;
  ckpt.telemetry = &ckpt_sink;
  ckpt.checkpoint.every = 2;
  ckpt.checkpoint.dir = out.dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), ckpt);
  out.sections = split_sections(
      read_file(util::ckpt::checkpoint_path(out.dir.string(), "ckpt", 2)));
  return out;
}

Image& payload_of(Sections& sections, const std::string& name) {
  for (auto& [section, payload] : sections) {
    if (section == name) return payload;
  }
  throw std::out_of_range("no section " + name);
}

/// Offset of the IBS streaming flag in a "daemon" payload. The driver state
/// opens with its backend byte and PML flag, then the IBS state, whose last
/// byte is the flag; the IBS state's length is measured by round-tripping
/// it through a monitor of the run's geometry.
std::size_t ibs_flag_offset(const Image& daemon) {
  util::ckpt::Writer framed;
  framed.begin_section("daemon");
  framed.put_bytes(daemon.data(), daemon.size());
  util::ckpt::Reader r(framed.finish());
  r.enter_section("daemon");
  EXPECT_EQ(r.get_u8(), static_cast<std::uint8_t>(core::TraceBackend::Ibs));
  (void)r.get_bool();  // PML presence
  monitors::IbsMonitor ibs(gated_runner(1).daemon.driver.ibs,
                           tiny_config().cores);
  ibs.load_state(r);
  util::ckpt::Writer w;
  w.begin_section("ibs");
  ibs.save_state(w);
  return 2 + split_sections(w.finish()).front().second.size() - 1;
}

/// Resume from `sections` (re-framed with fresh CRCs): exactly one
/// rejection naming `section`, then a cold start equal to the fresh run.
void expect_cold_start(const MarkerRun& run, const Sections& sections,
                       const std::string& section) {
  const std::string path = (run.dir / ("marker-" + section + ".tmck")).string();
  write_file(path, join_sections(sections));
  telemetry::Telemetry sink{telemetry::TelemetryConfig{}};
  RunnerOptions resume = gated_runner(3);
  resume.telemetry = &sink;
  resume.checkpoint.resume_from = path;
  ::testing::internal::CaptureStderr();
  const std::string got = fingerprint(EndToEndRunner::run(
      workloads::find_spec("gups", 0.05), tiny_config(), resume));
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(log, rejected_in(section)), 1U) << log;
  EXPECT_EQ(got, run.reference);
  EXPECT_EQ(exports_of(sink), run.exports);
}

TEST(CkptStreamMarker, StreamSectionTrueStartsCold) {
  const MarkerRun run = marker_run("marker-stream");
  Sections sections = run.sections;
  Image& marker = payload_of(sections, "stream");
  ASSERT_EQ(marker, Image{0});
  marker[0] = 1;
  expect_cold_start(run, sections, "stream");
}

TEST(CkptStreamMarker, IbsStreamingFlagTrueStartsCold) {
  const MarkerRun run = marker_run("marker-ibs");
  Sections sections = run.sections;
  Image& daemon = payload_of(sections, "daemon");
  const std::size_t at = ibs_flag_offset(daemon);
  ASSERT_EQ(daemon.at(at), 0);
  daemon[at] = 1;
  expect_cold_start(run, sections, "ibs");
}

// ---------------------------------------------------------------------------
// Hotness-store marker: every hotness store and seen-set writes a
// leading `0` byte (exact counting). A CRC-valid "truth" section carrying
// any other value — a checkpoint from a build with the count-min sketch
// front-end — must be rejected naming the section, and the cold start must
// match a collection that never resumed. A CRC-valid section with an
// absurd element count must take the same path instead of escaping as a
// std::length_error.

struct CollectMarkerRun {
  Image reference;    ///< series image of the uncheckpointed collection
  Sections sections;  ///< the epoch-2 checkpoint of the same collection
  fs::path dir;
};

CollectMarkerRun collect_marker_run(const std::string& name) {
  const auto spec = workloads::find_spec("gups", 0.05);
  CollectMarkerRun out;
  out.reference =
      series_image(collect_series(spec, tiny_config(), small_collect(3)));
  out.dir = fresh_dir(name);
  CollectOptions ck = small_collect(3);
  ck.checkpoint.every = 2;
  ck.checkpoint.dir = out.dir.string();
  (void)collect_series(spec, tiny_config(), ck);
  out.sections = split_sections(
      read_file(util::ckpt::checkpoint_path(out.dir.string(), "ckpt", 2)));
  return out;
}

/// Resume a collection from `sections`: exactly one rejection naming
/// "truth", then a cold start equal to the fresh collection.
void expect_collect_cold_start(const CollectMarkerRun& run,
                               const Sections& sections,
                               const std::string& file) {
  const std::string path = (run.dir / file).string();
  write_file(path, join_sections(sections));
  CollectOptions resume = small_collect(3);
  resume.checkpoint.resume_from = path;
  ::testing::internal::CaptureStderr();
  const Image got = series_image(collect_series(
      workloads::find_spec("gups", 0.05), tiny_config(), resume));
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(log, rejected_in("truth")), 1U) << log;
  EXPECT_EQ(got, run.reference);
}

/// Encoded length of the truth store that opens a "truth" payload, found
/// by loading it and saving it again.
std::size_t truth_store_bytes(const Image& truth) {
  util::ckpt::Writer framed;
  framed.begin_section("truth");
  framed.put_bytes(truth.data(), truth.size());
  util::ckpt::Reader r(framed.finish());
  r.enter_section("truth");
  core::HotnessTruth store;
  store.load_state(r, "truth");
  util::ckpt::Writer w;
  w.begin_section("truth");
  store.save_state(w);
  return split_sections(w.finish()).front().second.size();
}

TEST(CkptHotnessMarker, TruthStoreMarkerNonzeroStartsCold) {
  const CollectMarkerRun run = collect_marker_run("marker-truth-store");
  Sections sections = run.sections;
  Image& truth = payload_of(sections, "truth");
  ASSERT_EQ(truth.at(0), 0);
  truth[0] = 1;
  expect_collect_cold_start(run, sections, "marker-truth-store.tmck");
}

TEST(CkptHotnessMarker, SeenSetMarkerNonzeroStartsCold) {
  const CollectMarkerRun run = collect_marker_run("marker-seen-set");
  Sections sections = run.sections;
  Image& truth = payload_of(sections, "truth");
  const std::size_t at = truth_store_bytes(truth);
  ASSERT_EQ(truth.at(at), 0);
  truth[at] = 1;
  expect_collect_cold_start(run, sections, "marker-seen-set.tmck");
}

TEST(CkptCorruption, HugeTruthCountStartsCold) {
  const CollectMarkerRun run = collect_marker_run("huge-truth-count");
  Sections sections = run.sections;
  // Marker 0, total 0, then an element count of 2^58 with nothing after.
  util::ckpt::Writer w;
  w.begin_section("truth");
  w.put_u8(0);
  w.put_u64(0);
  w.put_u64(1ULL << 58);
  w.end_section();
  payload_of(sections, "truth") = split_sections(w.finish()).front().second;
  expect_collect_cold_start(run, sections, "huge-truth-count.tmck");
}

}  // namespace
}  // namespace tmprof::tiering
