// Tests of the harness itself (report computation, table rendering) and
// of targeted whole-system scenarios that the random sweeps are unlikely
// to produce — most importantly the orphan cut.

#include <gtest/gtest.h>

#include <sstream>

#include "core/pdu.hpp"
#include "core/process.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "net/endpoint.hpp"
#include "sim/simulation.hpp"

namespace urcgc::harness {
namespace {

TEST(RecoveryTime, FindsFirstSettlingDecision) {
  ExperimentReport report;
  DecisionEvent early;
  early.at = 100;
  early.full_group = true;
  early.alive = {true, true, true};  // crashed p2 not yet marked
  DecisionEvent marked;
  marked.at = 160;
  marked.full_group = false;  // marked but no stability yet
  marked.alive = {true, true, false};
  DecisionEvent settled;
  settled.at = 220;
  settled.full_group = true;
  settled.alive = {true, true, false};
  report.decisions = {early, marked, settled};

  EXPECT_DOUBLE_EQ(report.recovery_time_rtd({2}, 100, 20), 6.0);
}

TEST(RecoveryTime, IgnoresDecisionsBeforeCrash) {
  ExperimentReport report;
  DecisionEvent stale;
  stale.at = 50;
  stale.full_group = true;
  stale.alive = {true, false};
  report.decisions = {stale};
  EXPECT_LT(report.recovery_time_rtd({1}, 100, 20), 0.0);
}

TEST(RecoveryTime, NegativeWhenNeverSettled) {
  ExperimentReport report;
  EXPECT_LT(report.recovery_time_rtd({0}, 0, 20), 0.0);
}

TEST(Table, AlignsAndFormats) {
  Table table({"a", "long-header", "c"});
  table.row({"1", "2", "3"});
  table.row({"wide-cell", "x", ""});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 0), "3");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.row({"1", "plain"});
  table.row({"has,comma", "has\"quote"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(),
            "a,b\n1,plain\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.row({"only-one"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

// ---------------------------------------------------------------------
// Orphan cut, end to end: craft the exact situation of paper Section 4 —
// messages of a sequence survive only in the waiting lists of processes
// that cannot ever process them, because the predecessor died with every
// process that had processed it.

TEST(OrphanCut, WaitingMessagesDestroyedGroupWide) {
  core::Config config;
  config.n = 4;
  config.k_attempts = 2;

  fault::FaultPlan plan(4);
  plan.crash(3, 55);  // p3 dies early in subrun 2

  sim::Simulation sim;
  fault::FaultInjector faults(std::move(plan), Rng(7));
  net::Network network(sim, faults, {.min_latency = 5, .max_latency = 9},
                       Rng(8));

  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<core::UrcgcProcess>> processes;
  for (ProcessId p = 0; p < 4; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    processes.push_back(std::make_unique<core::UrcgcProcess>(
        config, p, sim, *endpoints.back(), faults));
    processes.back()->start();
  }

  // Craft p3's sequence by injecting raw PDUs: (3,2) reaches the healthy
  // members but its predecessor (3,1) reaches nobody — it "existed" only
  // at p3, which crashes before anyone can recover it.
  core::AppMessage m2;
  m2.mid = {3, 2};
  m2.deps = {{3, 1}};
  m2.payload = {0xBE};
  const auto frame = core::encode_pdu(m2);
  sim.at(41, [&] {
    for (ProcessId p = 0; p < 3; ++p) network.unicast(3, p, frame);
  });

  sim.run_until(40 * 20);  // plenty of subruns

  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_FALSE(processes[p]->halted()) << "p" << p;
    // The waiting message was destroyed, not processed.
    EXPECT_EQ(processes[p]->mt().waiting_size(), 0u) << "p" << p;
    EXPECT_FALSE(processes[p]->mt().processed({3, 2})) << "p" << p;
    EXPECT_GT(processes[p]->counters().orphans_discarded, 0u) << "p" << p;
    // And the group agreed p3 is gone.
    EXPECT_FALSE(processes[p]->latest_decision().alive[3]);
  }
}

TEST(OrphanCut, RecoveryPreferredWhenOriginAlive) {
  // Deterministic variant of the above using a loss window: every copy of
  // p3's first broadcast is lost, the second goes through; p3 stays alive,
  // so the gap must be healed by history recovery — no orphan cut.
  core::Config config;
  config.n = 4;

  fault::FaultPlan plan(4);
  plan.send_omissions(3, 1.0);
  plan.fault_window(0, 10);  // only the first broadcast window

  sim::Simulation sim;
  fault::FaultInjector faults(std::move(plan), Rng(7));
  net::Network network(sim, faults, {.min_latency = 5, .max_latency = 9},
                       Rng(8));

  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<core::UrcgcProcess>> processes;
  for (ProcessId p = 0; p < 4; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    processes.push_back(std::make_unique<core::UrcgcProcess>(
        config, p, sim, *endpoints.back(), faults));
    processes.back()->start();
  }

  processes[3]->data_rq({0x01});  // (3,1): all copies lost
  sim.run_until(20);
  processes[3]->data_rq({0x02});  // (3,2): delivered, waits on (3,1)
  sim.run_until(30 * 20);

  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(processes[p]->mt().processed({3, 1})) << "p" << p;
    EXPECT_TRUE(processes[p]->mt().processed({3, 2})) << "p" << p;
    EXPECT_EQ(processes[p]->counters().orphans_discarded, 0u) << "p" << p;
  }
  EXPECT_FALSE(processes[3]->halted());
}

TEST(Experiment, GraceSubrunsLetStabilitySettle) {
  ExperimentConfig config;
  config.protocol.n = 4;
  config.workload.load = 0.5;
  config.workload.total_messages = 20;
  config.grace_subruns = 10;
  config.seed = 3;
  auto report = Experiment(config).run();
  EXPECT_TRUE(report.quiescent);
  // All histories cleaned by the end: everything became stable.
  for (const auto& process : report.processes) {
    EXPECT_EQ(process.history, 0u);
  }
}

TEST(Experiment, ReportSeriesArePopulated) {
  ExperimentConfig config;
  config.protocol.n = 4;
  config.workload.load = 0.5;
  config.workload.total_messages = 20;
  config.seed = 3;
  auto report = Experiment(config).run();
  EXPECT_FALSE(report.history_max.empty());
  EXPECT_FALSE(report.waiting_max.empty());
  EXPECT_GT(report.decisions.size(), 0u);
  EXPECT_EQ(report.processes.size(), 4u);
}

TEST(Experiment, TransportMountPassesInvariants) {
  ExperimentConfig config;
  config.protocol.n = 5;
  config.workload.load = 0.5;
  config.workload.total_messages = 40;
  config.faults.packet_loss = 0.03;
  config.use_transport = true;
  config.transport.h_all_on_broadcast = true;
  config.seed = 3;
  auto report = Experiment(config).run();
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok());
  EXPECT_GT(report.traffic.count(stats::MsgClass::kTransportAck), 0u);
}

}  // namespace
}  // namespace urcgc::harness
