#include "pmu/counters.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::pmu {
namespace {

TEST(PmuCore, TruthAlwaysCounts) {
  PmuCore core(4);
  core.record(Event::LlcMiss, 0, 5);
  core.record(Event::LlcMiss, 10, 2);
  EXPECT_EQ(core.truth(Event::LlcMiss), 7U);
}

TEST(PmuCore, UnprogrammedEventReadsZero) {
  PmuCore core(4);
  core.record(Event::LlcMiss, 0, 100);
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
}

TEST(PmuCore, ProgrammedEventReadsExactWithoutMultiplexing) {
  PmuCore core(4);
  core.program({Event::LlcMiss, Event::DtlbWalk});
  EXPECT_FALSE(core.multiplexing());
  core.record(Event::LlcMiss, 0, 42);
  core.record(Event::DtlbWalk, 0, 17);
  EXPECT_EQ(core.read(Event::LlcMiss), 42U);
  EXPECT_EQ(core.read(Event::DtlbWalk), 17U);
}

TEST(PmuCore, MultiplexingScalesEstimates) {
  PmuCore core(1);  // one register, two events -> 50% duty cycle each
  core.program({Event::LlcMiss, Event::DtlbWalk});
  EXPECT_TRUE(core.multiplexing());
  // Emit a steady stream of both events over many slices.
  const util::SimNs horizon = 100 * PmuCore::kSliceNs;
  for (util::SimNs t = 0; t < horizon; t += util::kMicrosecond * 100) {
    core.record(Event::LlcMiss, t, 10);
    core.record(Event::DtlbWalk, t, 10);
  }
  const std::uint64_t true_count = core.truth(Event::LlcMiss);
  const std::uint64_t estimate = core.read(Event::LlcMiss);
  // The scaled estimate should be within 15% of truth for a steady stream.
  EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(true_count),
              0.15 * static_cast<double>(true_count));
}

TEST(PmuCore, DuplicateProgrammingRejected) {
  PmuCore core(2);
  EXPECT_THROW(core.program({Event::LlcMiss, Event::LlcMiss}),
               util::AssertionError);
}

TEST(PmuCore, ReprogramResetsObservation) {
  PmuCore core(2);
  core.program({Event::LlcMiss});
  core.record(Event::LlcMiss, 0, 5);
  core.program({Event::LlcMiss});
  EXPECT_EQ(core.read(Event::LlcMiss), 0U);
  EXPECT_EQ(core.truth(Event::LlcMiss), 5U);
}

std::vector<std::uint8_t> save_core(const PmuCore& core) {
  util::ckpt::Writer w;
  w.begin_section("pmu");
  core.save_state(w);
  w.end_section();
  return w.finish();
}

void load_core(PmuCore& core, std::vector<std::uint8_t> image) {
  util::ckpt::Reader r(std::move(image));
  r.enter_section("pmu");
  core.load_state(r);
  r.end_section();
}

TEST(PmuCore, MultiplexedReadsSurviveSaveLoad) {
  // Five events over two registers: the rotation, live flags and per-event
  // live time all feed read()'s scaling.
  const std::array<Event, 5> events{Event::LlcMiss, Event::DtlbWalk,
                                    Event::L1DMiss, Event::L2Miss,
                                    Event::RetiredLoads};
  PmuCore a(2);
  a.program({events.begin(), events.end()});
  ASSERT_TRUE(a.multiplexing());
  util::SimNs t = 0;
  auto drive = [&events, &t](PmuCore& core, util::SimNs until) {
    for (util::SimNs now = t; now < until; now += 37 * util::kMicrosecond) {
      for (std::size_t i = 0; i < events.size(); ++i) {
        core.record(events[i], now, 1 + i);
      }
    }
  };
  // Stop mid-slice so a live slice is open at the save.
  const util::SimNs cut = 11 * PmuCore::kSliceNs + PmuCore::kSliceNs / 3;
  drive(a, cut);
  t = cut;

  PmuCore b(2);
  load_core(b, save_core(a));
  for (Event e : events) {
    EXPECT_EQ(b.read(e), a.read(e)) << event_name(e);
    EXPECT_EQ(b.truth(e), a.truth(e)) << event_name(e);
  }
  // Both keep counting identically after the restore.
  drive(a, cut + 5 * PmuCore::kSliceNs);
  drive(b, cut + 5 * PmuCore::kSliceNs);
  for (Event e : events) {
    EXPECT_GT(a.read(e), 0U) << event_name(e);
    EXPECT_EQ(b.read(e), a.read(e)) << event_name(e);
  }
  EXPECT_EQ(save_core(b), save_core(a));
}

TEST(PmuCore, LoadRejectsEventProgrammedTwice) {
  // A PmuCore image whose programmed set lists one event twice. Reads map
  // an event to a single observation, so such a set has no meaning.
  util::ckpt::Writer w;
  w.begin_section("pmu");
  for (std::size_t i = 0; i < kEventCount; ++i) w.put_u64(0);
  w.put_u64(2);  // programmed events
  for (int i = 0; i < 2; ++i) {
    w.put_u8(static_cast<std::uint8_t>(Event::LlcMiss));
    w.put_u64(0);     // raw
    w.put_u64(0);     // live_ns
    w.put_bool(true); // live
  }
  for (int i = 0; i < 4; ++i) w.put_u64(0);  // rotation and clocks
  w.end_section();

  PmuCore core(4);
  try {
    load_core(core, w.finish());
    FAIL() << "duplicate programmed event accepted";
  } catch (const util::ckpt::CkptError& err) {
    EXPECT_EQ(err.section(), "pmu");
  }
}

TEST(Pmu, AggregatesAcrossCores) {
  Pmu pmu(3, 4);
  pmu.program_all({Event::LlcMiss});
  pmu.core(0).record(Event::LlcMiss, 0, 1);
  pmu.core(1).record(Event::LlcMiss, 0, 2);
  pmu.core(2).record(Event::LlcMiss, 0, 3);
  EXPECT_EQ(pmu.read_total(Event::LlcMiss), 6U);
  EXPECT_EQ(pmu.truth_total(Event::LlcMiss), 6U);
}

TEST(Pmu, CoreIndexValidated) {
  Pmu pmu(2);
  EXPECT_THROW(pmu.core(2), util::AssertionError);
}

TEST(Events, NamesAreUnique) {
  for (std::size_t i = 0; i < kEventCount; ++i) {
    for (std::size_t j = i + 1; j < kEventCount; ++j) {
      EXPECT_NE(event_name(static_cast<Event>(i)),
                event_name(static_cast<Event>(j)));
    }
  }
}

}  // namespace
}  // namespace tmprof::pmu
