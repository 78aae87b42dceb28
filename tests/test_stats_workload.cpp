#include <gtest/gtest.h>

#include <vector>

#include "baselines/analytic.hpp"
#include "common/rng.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "workload/workload.hpp"

namespace urcgc {
namespace {

// ---------------- stats ----------------

TEST(Summary, EmptyInput) {
  const auto s = stats::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, SingleValue) {
  const double v[] = {7.5};
  const auto s = stats::summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summary, KnownDistribution) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const auto s = stats::summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
  EXPECT_NEAR(s.p99, 99.01, 0.2);
  EXPECT_NEAR(s.stddev, 29.01, 0.1);
}

TEST(Summary, UnsortedInputHandled) {
  const double v[] = {9, 1, 5};
  const auto s = stats::summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.p50, 5);
}

TEST(TrafficAccountant, RecordsByClass) {
  stats::TrafficAccountant t;
  t.record(stats::MsgClass::kRequest, 100);
  t.record(stats::MsgClass::kRequest, 150);
  t.record(stats::MsgClass::kAppData, 64);
  EXPECT_EQ(t.count(stats::MsgClass::kRequest), 2u);
  EXPECT_EQ(t.bytes(stats::MsgClass::kRequest), 250u);
  EXPECT_EQ(t.max_bytes(stats::MsgClass::kRequest), 150u);
  EXPECT_EQ(t.count(stats::MsgClass::kDecision), 0u);
}

TEST(TrafficAccountant, ControlExcludesData) {
  stats::TrafficAccountant t;
  t.record(stats::MsgClass::kAppData, 1000);
  t.record(stats::MsgClass::kCbcastData, 1000);
  t.record(stats::MsgClass::kPsyncData, 1000);
  t.record(stats::MsgClass::kRequest, 10);
  t.record(stats::MsgClass::kDecision, 20);
  t.record(stats::MsgClass::kTransportAck, 5);
  EXPECT_EQ(t.control_count(), 3u);
  EXPECT_EQ(t.control_bytes(), 35u);
}

TEST(TrafficAccountant, ClassNames) {
  EXPECT_EQ(to_string(stats::MsgClass::kRequest), "request");
  EXPECT_EQ(to_string(stats::MsgClass::kCbcastFlush), "cbcast-flush");
  EXPECT_TRUE(stats::is_control(stats::MsgClass::kRecoverRq));
  EXPECT_FALSE(stats::is_control(stats::MsgClass::kAppData));
}

TEST(DelayTracker, MeanOverPairs) {
  stats::DelayTracker t;
  t.on_generated({0, 1}, 100);
  t.on_processed({0, 1}, 0, 100);
  t.on_processed({0, 1}, 1, 110);
  t.on_processed({0, 1}, 2, 130);
  auto delays = t.delays_ticks();
  ASSERT_EQ(delays.size(), 3u);
  const auto s = stats::summarize(delays);
  EXPECT_DOUBLE_EQ(s.mean, (0 + 10 + 30) / 3.0);
}

TEST(DelayTracker, OrphanProcessingIgnored) {
  stats::DelayTracker t;
  t.on_processed({9, 9}, 1, 50);  // never recorded as generated
  EXPECT_TRUE(t.delays_ticks().empty());
}

TEST(TimeSeries, RecordsAndMax) {
  stats::TimeSeries s;
  EXPECT_TRUE(s.empty());
  s.record(0, 1.0);
  s.record(10, 5.0);
  s.record(20, 3.0);
  EXPECT_EQ(s.points().size(), 3u);
  EXPECT_DOUBLE_EQ(s.max_value(), 5.0);
}

// ---------------- workload ----------------

workload::LoadGenerator::Hooks counting_hooks(
    std::vector<int>& submissions, int n) {
  (void)n;
  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&submissions](ProcessId p, std::vector<std::uint8_t>,
                                std::vector<Mid>) {
    ++submissions[p];
    return true;
  };
  hooks.active = [](ProcessId) { return true; };
  return hooks;
}

TEST(LoadGenerator, RespectsTotalMessages) {
  std::vector<int> submissions(4, 0);
  workload::WorkloadConfig config;
  config.load = 1.0;
  config.total_messages = 10;
  workload::LoadGenerator gen(4, config, counting_hooks(submissions, 4),
                              Rng(81));
  for (RoundId r = 0; r < 100 && !gen.exhausted(); ++r) gen.on_round(r);
  EXPECT_TRUE(gen.exhausted());
  EXPECT_EQ(gen.submitted(), 10);
  int total = 0;
  for (int s : submissions) total += s;
  EXPECT_EQ(total, 10);
}

TEST(LoadGenerator, LoadZeroSubmitsNothing) {
  std::vector<int> submissions(3, 0);
  workload::WorkloadConfig config;
  config.load = 0.0;
  workload::LoadGenerator gen(3, config, counting_hooks(submissions, 3),
                              Rng(82));
  for (RoundId r = 0; r < 50; ++r) gen.on_round(r);
  EXPECT_EQ(gen.submitted(), 0);
}

TEST(LoadGenerator, FullLoadSubmitsEveryRound) {
  std::vector<int> submissions(3, 0);
  workload::WorkloadConfig config;
  config.load = 1.0;
  config.total_messages = 0;  // uncapped
  workload::LoadGenerator gen(3, config, counting_hooks(submissions, 3),
                              Rng(83));
  for (RoundId r = 0; r < 10; ++r) gen.on_round(r);
  EXPECT_EQ(gen.submitted(), 30);
}

TEST(LoadGenerator, SkipsInactiveProcesses) {
  std::vector<int> submissions(3, 0);
  auto hooks = counting_hooks(submissions, 3);
  hooks.active = [](ProcessId p) { return p != 1; };
  workload::WorkloadConfig config;
  config.load = 1.0;
  config.total_messages = 0;
  workload::LoadGenerator gen(3, config, std::move(hooks), Rng(84));
  for (RoundId r = 0; r < 10; ++r) gen.on_round(r);
  EXPECT_EQ(submissions[1], 0);
  EXPECT_EQ(submissions[0], 10);
}

TEST(LoadGenerator, BackpressureViaPendingHook) {
  std::vector<int> submissions(2, 0);
  auto hooks = counting_hooks(submissions, 2);
  hooks.pending = [](ProcessId) { return std::int64_t{100}; };  // saturated
  workload::WorkloadConfig config;
  config.load = 1.0;
  config.total_messages = 0;
  config.max_pending_per_process = 4;
  workload::LoadGenerator gen(2, config, std::move(hooks), Rng(85));
  for (RoundId r = 0; r < 10; ++r) gen.on_round(r);
  EXPECT_EQ(gen.submitted(), 0);
}

TEST(LoadGenerator, CrossDepsComeFromLastProcessed) {
  std::vector<std::vector<Mid>> deps_seen;
  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&](ProcessId, std::vector<std::uint8_t>,
                     std::vector<Mid> deps) {
    deps_seen.push_back(std::move(deps));
    return true;
  };
  hooks.active = [](ProcessId) { return true; };
  hooks.last_processed = [](ProcessId, ProcessId origin) {
    return Mid{origin, 5};
  };
  workload::WorkloadConfig config;
  config.load = 1.0;
  config.cross_dep_prob = 1.0;
  config.total_messages = 0;
  workload::LoadGenerator gen(3, config, std::move(hooks), Rng(86));
  for (RoundId r = 0; r < 5; ++r) gen.on_round(r);
  ASSERT_EQ(deps_seen.size(), 15u);
  for (const auto& deps : deps_seen) {
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].seq, 5);
  }
}

TEST(MakePayload, DeterministicAndSized) {
  const auto a = workload::make_payload(32, 1, 7);
  const auto b = workload::make_payload(32, 1, 7);
  const auto c = workload::make_payload(32, 2, 7);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(workload::make_payload(0, 0, 0).empty());
  EXPECT_EQ(workload::make_payload(5, 0, 0).size(), 5u);
}

// ---------------- analytic models ----------------

TEST(Analytic, Table1Formulas) {
  using namespace baselines::analytic;
  EXPECT_EQ(urcgc_msgs_reliable(15), 28);
  EXPECT_EQ(cbcast_msgs_reliable(15), 16);
  EXPECT_EQ(urcgc_msgs_crash(15, 3, 1), 2 * 7 * 14);
  EXPECT_EQ(cbcast_msgs_crash(15, 3, 1), 3 * (2 * 27 + 1));
  EXPECT_EQ(cbcast_flush_size(15), 56);
  EXPECT_EQ(urcgc_msg_size(15, 0), 540);
}

TEST(Analytic, Figure5Shapes) {
  using namespace baselines::analytic;
  // urcgc slope 1 per extra coordinator crash; CBCAST slope 5K.
  EXPECT_EQ(urcgc_recovery_rtd(3, 0), 6);
  EXPECT_EQ(urcgc_recovery_rtd(3, 4), 10);
  EXPECT_EQ(cbcast_recovery_rtd(3, 0), 18);
  EXPECT_EQ(cbcast_recovery_rtd(3, 4), 78);
  for (int f = 0; f < 8; ++f) {
    EXPECT_LT(urcgc_recovery_rtd(3, f), cbcast_recovery_rtd(3, f));
  }
}

TEST(Analytic, HistoryBounds) {
  using namespace baselines::analytic;
  EXPECT_EQ(urcgc_history_reliable(40), 80);
  EXPECT_EQ(urcgc_history_bound(40, 3, 1), 2 * 7 * 40);
  EXPECT_EQ(flow_control_threshold(40), 320);
}

}  // namespace
}  // namespace urcgc
