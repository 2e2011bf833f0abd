// Unit tests for the metrics formatting and the network/traffic substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/experiments/testbed.h"
#include "src/metrics/table.h"
#include "src/net/network.h"
#include "src/net/traffic.h"

namespace accent {
namespace {

// --- formatting ---------------------------------------------------------------

TEST(Format, Commas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(4228129280ull), "4,228,129,280");
}

TEST(Format, Seconds) {
  EXPECT_EQ(FormatSeconds(1.5), "1.50");
  EXPECT_EQ(FormatSeconds(Ms(2500)), "2.50");
  EXPECT_EQ(FormatSeconds(0.1234, 3), "0.123");
}

TEST(Format, Percent) {
  EXPECT_EQ(FormatPercent(0.582), "58.2%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "12345"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  // Every line is equally terminated; row count = header + rule + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

// --- traffic recorder ---------------------------------------------------------

TEST(TrafficRecorder, AccumulatesByKind) {
  Simulator sim;
  TrafficRecorder recorder(&sim, Ms(100));
  recorder.Record(TrafficKind::kBulkData, 1000);
  recorder.Record(TrafficKind::kBulkData, 500);
  recorder.Record(TrafficKind::kFaultData, 64);
  EXPECT_EQ(recorder.BytesOf(TrafficKind::kBulkData), 1500u);
  EXPECT_EQ(recorder.BytesOf(TrafficKind::kFaultData), 64u);
  EXPECT_EQ(recorder.TotalBytes(), 1564u);
  EXPECT_EQ(recorder.MessagesOf(TrafficKind::kBulkData), 2u);
  EXPECT_EQ(recorder.TotalMessages(), 3u);
}

TEST(TrafficRecorder, BucketsByTime) {
  Simulator sim;
  TrafficRecorder recorder(&sim, Ms(100));
  recorder.Record(TrafficKind::kControl, 10);
  sim.ScheduleAt(Ms(250), [&] { recorder.Record(TrafficKind::kControl, 20); });
  sim.Run();
  ASSERT_EQ(recorder.buckets().size(), 3u);
  EXPECT_EQ(recorder.buckets()[0].bytes[static_cast<int>(TrafficKind::kControl)], 10u);
  EXPECT_EQ(recorder.buckets()[1].bytes[static_cast<int>(TrafficKind::kControl)], 0u);
  EXPECT_EQ(recorder.buckets()[2].bytes[static_cast<int>(TrafficKind::kControl)], 20u);
  EXPECT_EQ(recorder.buckets()[2].start, Ms(200));
}

TEST(TrafficRecorder, ResetClearsEverything) {
  Simulator sim;
  TrafficRecorder recorder(&sim, Ms(100));
  recorder.Record(TrafficKind::kCoreContext, 10);
  recorder.Reset();
  EXPECT_EQ(recorder.TotalBytes(), 0u);
  EXPECT_TRUE(recorder.buckets().empty());
}

// BENCH_sweep.json's Figure 4-5 series sums five 500 ms buckets of the
// testbed's series into each 2.5 s bucket (bench/run_all.cc). That equals a
// 2.5 s recorder of the same byte stream only if every byte lands in the
// coarse bucket that holds its fine one, bucket edges included.
TEST(TrafficRecorder, CoarseSeriesIsFineSeriesSummed) {
  Simulator sim;
  TrafficRecorder fine(&sim, Ms(500));
  TrafficRecorder coarse(&sim, Ms(2500));
  std::vector<SimTime> times = {Ms(2500) - Us(1), Ms(2500), Ms(5000), Ms(7500) + Us(1)};
  for (std::int64_t k = 0; k < 200; ++k) {
    times.push_back(SimTime(0) + Ms(137 * k));
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleAt(times[i], [&fine, &coarse, i] {
      const auto kind = static_cast<TrafficKind>(i % 4);
      fine.Record(kind, 100 + i);
      coarse.Record(kind, 100 + i);
    });
  }
  sim.Run();

  const std::vector<TrafficRecorder::Bucket>& f = fine.buckets();
  const std::vector<TrafficRecorder::Bucket>& c = coarse.buckets();
  ASSERT_EQ(c.size(), (f.size() + 4) / 5);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i].start, f[5 * i].start);
    for (std::size_t k = 0; k < c[i].bytes.size(); ++k) {
      ByteCount sum = 0;
      for (std::size_t j = 5 * i; j < std::min(5 * i + 5, f.size()); ++j) {
        sum += f[j].bytes[k];
      }
      EXPECT_EQ(c[i].bytes[k], sum) << "bucket " << i << " kind " << k;
    }
  }
  EXPECT_EQ(coarse.TotalBytes(), fine.TotalBytes());
}

// --- network wire -------------------------------------------------------------

TEST(Network, DeliversAfterSerializationAndLatency) {
  Simulator sim;
  CostTable costs;
  TrafficRecorder recorder(&sim, Ms(500));
  Network net(&sim, &costs, &recorder);
  SimTime delivered{0};
  const ByteCount bytes = 100000;
  net.Transmit(HostId(1), HostId(2), bytes, TrafficKind::kBulkData,
               [&] { delivered = sim.Now(); });
  sim.Run();
  const auto serialize =
      SimDuration(static_cast<std::int64_t>(bytes / costs.wire_bytes_per_sec * 1e6));
  EXPECT_EQ(delivered, serialize + costs.wire_latency);
  EXPECT_EQ(net.bytes_carried(), bytes);
  EXPECT_EQ(net.transmissions(), 1u);
  EXPECT_EQ(recorder.BytesOf(TrafficKind::kBulkData), bytes);
}

TEST(Network, SharedMediumSerializesTransmissions) {
  Simulator sim;
  CostTable costs;
  Network net(&sim, &costs, nullptr);
  SimTime first{0};
  SimTime second{0};
  net.Transmit(HostId(1), HostId(2), 100000, TrafficKind::kControl,
               [&] { first = sim.Now(); });
  net.Transmit(HostId(2), HostId(1), 100000, TrafficKind::kControl,
               [&] { second = sim.Now(); });
  sim.Run();
  // The second transmission queued behind the first on the single wire.
  EXPECT_GT(second, first);
  const auto serialize =
      SimDuration(static_cast<std::int64_t>(100000 / costs.wire_bytes_per_sec * 1e6));
  EXPECT_EQ(second - first, serialize);
}

TEST(Network, ZeroByteTransmissionStillHasLatency) {
  Simulator sim;
  CostTable costs;
  Network net(&sim, &costs, nullptr);
  SimTime delivered{0};
  net.Transmit(HostId(1), HostId(2), 0, TrafficKind::kControl, [&] { delivered = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered, costs.wire_latency);
}

// --- cost table sanity ---------------------------------------------------------

TEST(Costs, AnchorsAreInternallyConsistent) {
  const CostTable& costs = PerqCosts();
  // Local fault anchor: pager CPU + one disk read ~= 40.8 ms.
  EXPECT_NEAR(ToSeconds(costs.pager_disk_fault_cpu + costs.disk_page_read), 0.0408, 0.001);
  // Bulk throughput: two nodes' per-byte handling ~= 15 KB/s end to end.
  const double per_byte_s = 2.0 * ToSeconds(costs.netmsg_per_byte);
  EXPECT_NEAR(1.0 / per_byte_s, 15150.0, 500.0);
  // Pages are the Accent page size.
  EXPECT_EQ(kPageSize, 512u);
}

}  // namespace
}  // namespace accent
