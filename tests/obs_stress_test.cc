// Concurrency stress for src/obs, built to run under TSan (the CI job's
// sanitizer matrix includes it): writer threads hammer histograms and trace
// spans while reader threads concurrently render Prometheus text, snapshot
// histograms, and flip the enable flag. The assertions are deliberately
// coarse — no sample may be lost once the flag is stably on, and
// renders/snapshots must never crash or tear a single update — because the
// interesting property here is "TSan stays silent", not exact
// interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dlcirc {
namespace obs {
namespace {

TEST(ObsStress, WritersAndReadersRaceCleanly) {
  Registry reg;
  reg.set_enabled(true);
  TraceRecorder rec;
  rec.set_enabled(true);

  const int kWriters = 8;
  const uint64_t kOpsPerWriter = 30000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&reg, &rec, t] {
      // Resolve shared and per-thread series through the registry from
      // every thread concurrently: registration itself is part of the race.
      Histogram& total = reg.GetHistogram("stress_ones", "", "");
      Histogram& lat = reg.GetHistogram("stress_ns", "", "");
      Histogram& mine = reg.GetHistogram(
          "stress_ns", "thread=\"" + std::to_string(t) + "\"", "");
      for (uint64_t i = 0; i < kOpsPerWriter; ++i) {
        total.Record(1);
        uint64_t start = lat.StartTimeNs();
        mine.Record(i * 37 + static_cast<uint64_t>(t));
        lat.RecordSince(start);
        if ((i & 1023) == 0) {
          TraceSpan span(rec, "stress", "tick");
          span.set_args_json("\"thread\":" + std::to_string(t));
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&reg, &rec, &stop] {
      Histogram& lat = reg.GetHistogram("stress_ns", "", "");
      size_t renders = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string text = reg.RenderPrometheus();
        EXPECT_FALSE(text.empty());
        LocalHistogram snap = lat.Snapshot();
        EXPECT_LE(snap.Quantile(0.99), snap.max());
        std::ostringstream trace_out;
        rec.WriteChromeTrace(trace_out);
        ++renders;
      }
      EXPECT_GT(renders, 0u);
    });
  }

  // One thread toggles the enable flag mid-flight, then leaves it on: the
  // relaxed flag is allowed to drop updates around the flips, never to
  // corrupt state.
  std::thread toggler([&reg] {
    for (int i = 0; i < 100; ++i) {
      reg.set_enabled(false);
      reg.set_enabled(true);
    }
  });

  for (std::thread& w : writers) w.join();
  toggler.join();
  stop.store(true);
  for (std::thread& r : readers) r.join();

  // Bounds, not equalities: the toggler may have eaten some updates.
  const LocalHistogram total =
      reg.GetHistogram("stress_ones", "", "").Snapshot();
  EXPECT_GT(total.count(), 0u);
  EXPECT_LE(total.count(), kWriters * kOpsPerWriter);
  EXPECT_EQ(total.sum(), total.count());  // every sample was a 1
  EXPECT_GT(rec.size(), 0u);
}

TEST(ObsStress, ConcurrentRegistrationReturnsStableReferences) {
  Registry reg;
  reg.set_enabled(true);
  const int kThreads = 8;
  std::vector<Histogram*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      for (int i = 0; i < 1000; ++i) {
        Histogram& h = reg.GetHistogram("same_ns", "", "");
        h.Record(static_cast<uint64_t>(i));
        seen[t] = &h;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->count(), static_cast<uint64_t>(kThreads) * 1000);
}

}  // namespace
}  // namespace obs
}  // namespace dlcirc
