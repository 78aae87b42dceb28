// Baseline runner end-to-end checks and decoder robustness against random
// bytes (a hostile/corrupted subnet must never crash a process).

#include <gtest/gtest.h>

#include "baselines/runner.hpp"
#include "common/rng.hpp"
#include "core/pdu.hpp"
#include "stats/metrics.hpp"

namespace urcgc {
namespace {

// ---------------- baseline runners ----------------

TEST(CbcastRunner, ReliableRunDeliversEverything) {
  baselines::BaselineConfig config;
  config.n = 6;
  config.workload.load = 0.5;
  config.workload.total_messages = 60;
  config.seed = 5;
  const auto report = baselines::run_cbcast(config);
  EXPECT_EQ(report.generated, 60u);
  EXPECT_EQ(report.delivered_events, 360u);
  EXPECT_EQ(report.survivors, 6);
  EXPECT_TRUE(report.causal_order_ok);
  EXPECT_DOUBLE_EQ(report.blocked_rtd, 0.0);
  EXPECT_LT(report.view_change_rtd, 0.0);  // no crash, no view change
  EXPECT_GT(report.end_rtd, 0.0);
}

TEST(CbcastRunner, StormMeasuresViewChange) {
  baselines::BaselineConfig config;
  config.n = 8;
  config.workload.load = 0.5;
  config.workload.total_messages = 120;
  config.faults.flush_coordinator_crashes = 1;
  config.seed = 5;
  const auto report = baselines::run_cbcast(config);
  EXPECT_TRUE(report.causal_order_ok);
  EXPECT_GT(report.view_change_rtd, 0.0);
  EXPECT_GT(report.blocked_rtd, 0.0);
  EXPECT_EQ(report.survivors, 6);  // victim + 1 flush coordinator crashed
  // Transport acks were folded into the accounting.
  EXPECT_GT(report.traffic.count(stats::MsgClass::kTransportAck), 0u);
}

TEST(CbcastRunner, MoreCoordinatorCrashesTakeLonger) {
  auto run = [](int f) {
    baselines::BaselineConfig config;
    config.n = 10;
    config.workload.load = 0.5;
    config.workload.total_messages = 150;
    config.faults.flush_coordinator_crashes = f;
    config.seed = 5;
    return baselines::run_cbcast(config).view_change_rtd;
  };
  const double t0 = run(0);
  const double t2 = run(2);
  ASSERT_GT(t0, 0.0);
  ASSERT_GT(t2, 0.0);
  EXPECT_GT(t2, t0 + 2.0);  // each restart costs at least a timeout
}

TEST(PsyncRunner, ReliableRunDeliversEverything) {
  baselines::BaselineConfig config;
  config.n = 5;
  config.workload.load = 0.5;
  config.workload.total_messages = 50;
  config.seed = 9;
  const auto report = baselines::run_psync(config);
  EXPECT_EQ(report.generated, 50u);
  EXPECT_EQ(report.delivered_events, 250u);
  EXPECT_TRUE(report.causal_order_ok);
  EXPECT_EQ(report.flow_drops, 0u);
}

TEST(PsyncRunner, CrashTriggersMaskOut) {
  baselines::BaselineConfig config;
  config.n = 5;
  config.workload.load = 0.5;
  config.workload.total_messages = 60;
  config.faults.crashes = {{4, 120}};
  config.seed = 9;
  const auto report = baselines::run_psync(config);
  EXPECT_TRUE(report.causal_order_ok);
  EXPECT_EQ(report.survivors, 4);
  EXPECT_GE(report.view_change_rtd, 0.0);
  EXPECT_GT(report.blocked_rtd, 0.0);
}

TEST(PsyncRunner, WaitingBoundCausesDrops) {
  baselines::BaselineConfig config;
  config.n = 6;
  config.workload.load = 1.0;
  config.workload.total_messages = 150;
  config.faults.packet_loss = 0.02;
  config.psync_waiting_bound = 2;
  config.seed = 9;
  config.limit_rtd = 800;
  const auto report = baselines::run_psync(config);
  EXPECT_GT(report.flow_drops, 0u);
}

// ---------------- decoder fuzz ----------------

TEST(PduFuzz, RandomBytesNeverCrashAndMostlyFail) {
  Rng rng(0xF022);
  int decoded = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform(64));
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
    auto pdu = core::decode_pdu(bytes);
    if (pdu.has_value()) ++decoded;  // extremely unlikely but legal
  }
  EXPECT_LT(decoded, 20);
}

TEST(PduFuzz, TruncationsOfValidPdusAlwaysFailCleanly) {
  core::Request rq;
  rq.subrun = 3;
  rq.from = 1;
  rq.last_processed = {1, 2, 3};
  rq.oldest_waiting = {kNoSeq, kNoSeq, 7};
  rq.prev_decision = core::Decision::initial(3);
  const auto bytes = core::encode_pdu(rq);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(core::decode_pdu(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(PduFuzz, BitFlipsNeverCrash) {
  core::AppMessage msg;
  msg.mid = {2, 9};
  msg.deps = {{2, 8}, {0, 4}};
  msg.payload = {1, 2, 3, 4};
  const auto bytes = core::encode_pdu(msg);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = bytes;
      corrupted[i] = static_cast<std::uint8_t>(corrupted[i] ^ (1u << bit));
      (void)core::decode_pdu(corrupted);  // must not crash; outcome free
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace urcgc
