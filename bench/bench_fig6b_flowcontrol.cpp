// Figure 6 b) reproduction: the distributed flow-control policy bounds the
// local history (threshold 8n) at the cost of a longer time to finish
// processing the offered messages.
//
// Paper: when the local history length reaches 8n, a process refrains from
// generating until cleaning shrinks it; this bounds both the history and
// the waiting list, and lengthens the run.

#include <cstdio>

#include "baselines/analytic.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace {

using namespace urcgc;

harness::ExperimentReport run(std::size_t threshold, int k) {
  harness::ExperimentConfig config;
  config.protocol.n = 40;
  config.protocol.k_attempts = k;
  config.protocol.history_threshold = threshold;
  config.workload.load = 1.0;  // saturating load to stress the history
  config.workload.total_messages = 1600;
  config.workload.max_pending_per_process = 64;
  // An early crash stalls history cleaning until the crash is declared
  // (K subruns of attempts), so at saturating load the history outruns
  // the paper's 8n threshold — the situation flow control must bound.
  config.faults.crashes = {{39, 60}};
  config.faults.omission_prob = 1.0 / 500.0;
  config.faults.window_start_rtd = 0;
  config.faults.window_end_rtd = 10;
  config.seed = 19;
  config.limit_rtd = 8000;
  return harness::Experiment(config).run();
}

}  // namespace

int main() {
  const auto threshold =
      static_cast<std::size_t>(baselines::analytic::flow_control_threshold(40));
  std::printf(
      "Figure 6 b) — history with distributed flow control (threshold 8n ="
      " %zu)\nn=40, 1600 messages, saturating load, K=9, general omission in"
      " the first 10 rtd\n\n",
      threshold);

  const auto uncontrolled = run(0, 9);
  const auto controlled = run(threshold, 9);

  harness::Table table({"metric", "no flow control", "threshold 8n"});
  table.row({"peak history (max over procs)",
             harness::Table::num(uncontrolled.history_max.max_value(), 0),
             harness::Table::num(controlled.history_max.max_value(), 0)});
  table.row({"peak waiting list",
             harness::Table::num(uncontrolled.waiting_max.max_value(), 0),
             harness::Table::num(controlled.waiting_max.max_value(), 0)});
  table.row({"completion time (rtd)",
             harness::Table::num(uncontrolled.end_rtd, 0),
             harness::Table::num(controlled.end_rtd, 0)});
  std::uint64_t blocked = 0;
  for (const auto& process : controlled.processes) {
    blocked += process.counters.flow_blocked_rounds;
  }
  table.row({"flow-blocked rounds (total)", "0", harness::Table::num(blocked)});
  table.row({"invariants",
             uncontrolled.all_ok() ? "OK" : "VIOLATED",
             controlled.all_ok() ? "OK" : "VIOLATED"});
  table.print();

  std::printf("\nshape checks:\n");
  const double margin = 2.0 * 40;  // messages in flight during one subrun
  std::printf("  controlled peak near threshold      : %.0f <= %zu + %g"
              " (%s)\n",
              controlled.history_max.max_value(), threshold, margin,
              controlled.history_max.max_value() <=
                      static_cast<double>(threshold) + margin
                  ? "OK"
                  : "FAILS");
  std::printf("  flow control engaged                : %s\n",
              blocked > 0 ? "OK" : "never triggered");
  std::printf("  completion takes longer when bounded: %.0f vs %.0f rtd"
              " (%s)\n",
              controlled.end_rtd, uncontrolled.end_rtd,
              controlled.end_rtd >= uncontrolled.end_rtd ? "OK" : "FAILS");
  return 0;
}
