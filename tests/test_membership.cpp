// Dynamic membership: JOIN admission through the decision stream, snapshot
// catch-up over the batched recovery path, joiner equivalence across
// runtime backends, decode-boundary fuzz on the membership PDUs, and the
// serve-cache version discriminator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/pdu.hpp"
#include "core/process.hpp"
#include "fault/injector.hpp"
#include "harness/experiment.hpp"
#include "net/endpoint.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "trace/trace.hpp"

namespace urcgc {
namespace {

using core::Config;
using core::UrcgcProcess;

harness::ExperimentConfig base_config() {
  harness::ExperimentConfig cfg;
  cfg.protocol.n = 3;
  cfg.workload.total_messages = 120;
  cfg.workload.load = 0.5;
  cfg.seed = 7;
  return cfg;
}

// Hand-assembled group on the simulator with explicit start control:
// founders boot immediately, joiners when the test says so.
struct MemberGroup {
  explicit MemberGroup(Config config,
                       fault::FaultPlan plan = fault::FaultPlan(0))
      : injector(plan.per_process.empty() ? fault::FaultPlan(config.n)
                                          : std::move(plan),
                 Rng(51)),
        network(sim, injector, {.min_latency = 5, .max_latency = 9},
                Rng(52)) {
    for (ProcessId p = 0; p < config.n; ++p) {
      endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
      processes.push_back(std::make_unique<UrcgcProcess>(
          config, p, sim, *endpoints.back(), injector, nullptr));
    }
    for (int p = 0; p < config.founders(); ++p) processes[p]->start();
  }

  UrcgcProcess& at(ProcessId p) { return *processes[p]; }
  void run_subruns(int count) {
    sim.run_until(sim.now() + count * sim.clock().ticks_per_subrun());
  }

  sim::Simulation sim;
  fault::FaultInjector injector;
  net::Network network;
  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<UrcgcProcess>> processes;
};

// --- Basic join --------------------------------------------------------

TEST(Membership, SingleJoinerCatchesUpOnSim) {
  harness::ExperimentConfig cfg = base_config();
  cfg.join_rtds = {6.0};
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok()) << (report.violations.empty()
                                       ? std::string("?")
                                       : report.violations.front());
  ASSERT_EQ(report.joins.size(), 1u);
  EXPECT_EQ(report.joins[0].p, 3);
  ASSERT_EQ(report.processes.size(), 4u);
  EXPECT_EQ(report.processes[3].join_phase,
            core::UrcgcProcess::JoinPhase::kMember);
  EXPECT_GT(report.processes[3].counters.join_requested, 0u);
  // Someone coordinated the admission.
  std::uint64_t decided = 0;
  for (const auto& p : report.processes) decided += p.counters.join_decided;
  EXPECT_EQ(decided, 1u);
  // The joiner generated traffic after joining (workload spread over 4).
  EXPECT_GT(report.processes[3].processed, 0u);
}

// Regression (pre-fix join-path violation): a joiner admitted while the
// group has an active stability window receives, in the very decision that
// admits it, a full-group clean_upto computed from a window the joiner
// never contributed to — far beyond its empty processed prefix. Before the
// catch-up cleaning guard in apply_decision this tripped the
// "cleaning point beyond local processed prefix" invariant in
// MtEntity::clean and took the joiner down mid-admission.
TEST(Membership, JoinDuringActiveCleaningRegression) {
  harness::ExperimentConfig cfg = base_config();
  cfg.workload.total_messages = 240;
  cfg.workload.load = 0.9;
  cfg.join_rtds = {14.0};  // well past the first cleanings
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok());
  ASSERT_EQ(report.joins.size(), 1u);
  // The group genuinely cleaned before the join (the hazard was armed).
  bool cleaned_before_join = false;
  for (const auto& d : report.decisions) {
    if (d.full_group && d.at < report.joins[0].at &&
        d.alive.size() == 3u) {
      cleaned_before_join = true;
      break;
    }
  }
  EXPECT_TRUE(cleaned_before_join);
  // The adopted baseline reflects pre-join stability: some origin's prefix
  // was handed over instead of replayed.
  const auto& baseline = report.joins[0].baseline;
  EXPECT_TRUE(std::any_of(baseline.begin(), baseline.end(),
                          [](Seq s) { return s > kNoSeq; }));
}

TEST(Membership, TwoStaggeredJoinersBothAdmitted) {
  harness::ExperimentConfig cfg = base_config();
  cfg.workload.total_messages = 200;
  cfg.join_rtds = {5.0, 11.0};
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok());
  ASSERT_EQ(report.joins.size(), 2u);
  std::set<ProcessId> joined;
  for (const auto& j : report.joins) joined.insert(j.p);
  EXPECT_EQ(joined, (std::set<ProcessId>{3, 4}));
  // The view widened monotonically along the decision stream: 3 -> 4 -> 5.
  int widest = 0;
  for (const auto& d : report.decisions) {
    const int view = static_cast<int>(d.alive.size());
    EXPECT_GE(view, widest);
    widest = std::max(widest, view);
  }
  EXPECT_EQ(widest, 5);
}

TEST(Membership, JoinSurvivesPipeliningAndBothEncodings) {
  for (const int k : {1, 4}) {
    for (const auto encoding :
         {core::ControlEncoding::kFull, core::ControlEncoding::kDelta}) {
      harness::ExperimentConfig cfg = base_config();
      cfg.protocol.max_subruns_in_flight = k;
      cfg.protocol.control_encoding = encoding;
      cfg.workload.total_messages = 160;
      cfg.join_rtds = {7.0};
      harness::ExperimentReport report = harness::Experiment(cfg).run();

      EXPECT_TRUE(report.quiescent)
          << "k=" << k << " encoding=" << core::to_string(encoding);
      EXPECT_TRUE(report.all_ok())
          << "k=" << k << " encoding=" << core::to_string(encoding) << ": "
          << (report.violations.empty() ? "" : report.violations.front());
      EXPECT_EQ(report.joins.size(), 1u)
          << "k=" << k << " encoding=" << core::to_string(encoding);
    }
  }
}

// --- Cross-backend equivalence ----------------------------------------

// Collects per-process delivery logs through the trace layer.
std::map<ProcessId, std::vector<Mid>> delivery_logs(
    const trace::TraceRecorder& recorder) {
  std::map<ProcessId, std::vector<Mid>> logs;
  for (const auto& event : recorder.filter(trace::EventKind::kProcessed)) {
    logs[event.process].push_back(event.mid);
  }
  return logs;
}

// Same seed, same join schedule on sim vs threads vs socket. The offered
// workload reacts to runtime state (backpressure, pacing), so per-origin
// generation counts legitimately differ across backends; the equivalence
// the protocol actually promises — and what this test pins per backend —
// is view-wide delivery agreement including the joiner (modulo its
// adopted baseline), gap-free per-origin FIFO everywhere, and the join
// completing on every backend. Bit-identical full logs are asserted where
// they are defined: two runs of the same (seed, schedule) pair on the
// deterministic simulator.
TEST(MembershipCrossBackend, JoinEquivalenceSimThreadsSocket) {
  const auto run_with = [](harness::Backend backend,
                           trace::TraceRecorder* recorder) {
    harness::ExperimentConfig cfg;
    cfg.protocol.n = 4;
    cfg.workload.total_messages = 100;
    cfg.workload.load = 0.5;
    cfg.seed = 21;
    cfg.join_rtds = {6.0};
    cfg.backend = backend;
    cfg.thread_tick_ns = 0;  // free-running
    cfg.extra_observer = recorder;
    return harness::Experiment(cfg).run();
  };

  trace::TraceRecorder sim_a({trace::EventKind::kProcessed,
                              trace::EventKind::kJoined});
  trace::TraceRecorder sim_b({trace::EventKind::kProcessed,
                              trace::EventKind::kJoined});
  trace::TraceRecorder thr({trace::EventKind::kProcessed,
                            trace::EventKind::kJoined});
  trace::TraceRecorder sock({trace::EventKind::kProcessed,
                             trace::EventKind::kJoined});
  const auto sim_report = run_with(harness::Backend::kSim, &sim_a);
  const auto sim_replay = run_with(harness::Backend::kSim, &sim_b);
  const auto thr_report = run_with(harness::Backend::kThreads, &thr);
  const auto sock_report = run_with(harness::Backend::kSocket, &sock);

  for (const auto* report : {&sim_report, &thr_report, &sock_report}) {
    ASSERT_TRUE(report->quiescent);
    ASSERT_TRUE(report->all_ok())
        << (report->violations.empty() ? "" : report->violations.front());
    ASSERT_EQ(report->joins.size(), 1u);
    EXPECT_EQ(report->joins[0].p, 4);
  }

  // Simulator replay: bit-identical delivery order, join included.
  EXPECT_EQ(sim_a.events(), sim_b.events());

  const auto check_run = [](const char* name,
                            const trace::TraceRecorder& recorder,
                            const harness::ExperimentReport& report) {
    const auto logs = delivery_logs(recorder);
    const auto& baseline = report.joins[0].baseline;

    // Gap-free per-origin FIFO at every process; joiner origins start
    // right above the adopted baseline.
    for (const auto& [p, log] : logs) {
      std::map<ProcessId, Seq> next;
      for (const Mid& mid : log) {
        auto [it, fresh] = next.try_emplace(mid.origin, kNoSeq);
        if (fresh && p == 4 &&
            static_cast<std::size_t>(mid.origin) < baseline.size()) {
          it->second = baseline[mid.origin];
        }
        EXPECT_EQ(mid.seq, it->second + 1)
            << name << " p" << p << " origin " << mid.origin;
        it->second = mid.seq;
      }
    }

    // View-wide agreement: all founders delivered the same set, and the
    // joiner delivered exactly that set beyond its baseline.
    const auto as_set = [&](ProcessId p) {
      const auto it = logs.find(p);
      return it == logs.end() ? std::set<Mid>{}
                              : std::set<Mid>(it->second.begin(),
                                              it->second.end());
    };
    const std::set<Mid> reference = as_set(0);
    EXPECT_FALSE(reference.empty()) << name;
    for (ProcessId p = 1; p < 4; ++p) {
      EXPECT_EQ(as_set(p), reference) << name << " p" << p;
    }
    std::set<Mid> expected_joiner;
    for (const Mid& mid : reference) {
      const auto origin = static_cast<std::size_t>(mid.origin);
      if (origin >= baseline.size() || mid.seq > baseline[origin]) {
        expected_joiner.insert(mid);
      }
    }
    EXPECT_EQ(as_set(4), expected_joiner) << name;
  };
  check_run("sim", sim_a, sim_report);
  check_run("threads", thr, thr_report);
  check_run("socket", sock, sock_report);
}

// --- Catch-up under omission -------------------------------------------

TEST(Membership, CatchupDrainsUnderOmission) {
  harness::ExperimentConfig cfg = base_config();
  cfg.protocol.n = 4;
  cfg.workload.total_messages = 160;
  cfg.faults.omission_prob = 0.02;  // 1 in 50, open-ended window
  cfg.join_rtds = {8.0};
  cfg.limit_rtd = 3000.0;
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok()) << (report.violations.empty()
                                       ? std::string("")
                                       : report.violations.front());
  ASSERT_EQ(report.joins.size(), 1u);
  const auto& joiner = report.processes[4];
  EXPECT_EQ(joiner.join_phase, core::UrcgcProcess::JoinPhase::kMember);
  // The snapshot handshake happened (at least one adopted response).
  EXPECT_GT(joiner.counters.join_catchup_batches, 0u);
}

// Budget exhaustion, pre-admission flavor: a joiner partitioned from the
// entire group can never be admitted; it must burn its budget, halt with
// join-exhausted, and leave the group untouched — no decision ever widens.
TEST(Membership, IsolatedJoinerExhaustsBudgetWithoutHalfAdmission) {
  harness::ExperimentConfig cfg = base_config();
  cfg.protocol.join_attempts = 6;
  cfg.join_rtds = {4.0};
  cfg.faults.partitions.push_back({{3}, 0.0, -1.0});
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok());
  EXPECT_TRUE(report.joins.empty());
  ASSERT_EQ(report.processes.size(), 4u);
  EXPECT_TRUE(report.processes[3].halted);
  EXPECT_EQ(report.processes[3].reason, core::HaltReason::kJoinExhausted);
  // Never half-admitted: the view never widened past the founders.
  for (const auto& d : report.decisions) {
    EXPECT_EQ(d.alive.size(), 3u);
  }
}

// Budget exhaustion, post-admission flavor: the joiner is cut off right
// after its join request lands. Whatever the race outcome — admitted then
// cut like any silent member, or never admitted — the surviving group must
// stay consistent and quiesce.
TEST(Membership, JoinerCutDuringCatchupLeavesGroupConsistent) {
  harness::ExperimentConfig cfg = base_config();
  cfg.protocol.join_attempts = 8;
  cfg.workload.total_messages = 150;
  cfg.join_rtds = {6.0};
  cfg.faults.partitions.push_back({{3}, 8.0, -1.0});
  cfg.limit_rtd = 3000.0;
  harness::ExperimentReport report = harness::Experiment(cfg).run();

  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok()) << (report.violations.empty()
                                       ? std::string("")
                                       : report.violations.front());
  // The joiner either made it in before the cut or halted trying; it never
  // wedges the group.
  const auto& joiner = report.processes[3];
  EXPECT_TRUE(joiner.join_phase == core::UrcgcProcess::JoinPhase::kMember ||
              joiner.halted);
  // Founders stayed alive and drained the workload between them.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_FALSE(report.processes[p].halted) << "p" << p;
  }
}

// --- Membership PDU fuzz ------------------------------------------------

TEST(MembershipPduFuzz, RoundtripAllThreePdus) {
  const core::JoinRq join{5, 3};
  auto join_out = core::decode_pdu(core::encode_pdu(join));
  ASSERT_TRUE(join_out.has_value());
  EXPECT_EQ(std::get<core::JoinRq>(join_out.value()), join);

  const core::SnapshotRq rq{4};
  auto rq_out = core::decode_pdu(core::encode_pdu(rq));
  ASSERT_TRUE(rq_out.has_value());
  EXPECT_EQ(std::get<core::SnapshotRq>(rq_out.value()), rq);

  const core::SnapshotRsp rsp{2, {kNoSeq, 7, 19, kNoSeq, 3}};
  auto rsp_out = core::decode_pdu(core::encode_pdu(rsp));
  ASSERT_TRUE(rsp_out.has_value());
  EXPECT_EQ(std::get<core::SnapshotRsp>(rsp_out.value()), rsp);
}

TEST(MembershipPduFuzz, TruncationsAlwaysFailCleanly) {
  const std::vector<std::vector<std::uint8_t>> frames = {
      core::encode_pdu(core::JoinRq{5, 3}),
      core::encode_pdu(core::SnapshotRq{4}),
      core::encode_pdu(core::SnapshotRsp{2, {1, 2, 3, kNoSeq, 9}}),
  };
  for (const auto& bytes : frames) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::span<const std::uint8_t> prefix(bytes.data(), cut);
      EXPECT_FALSE(core::decode_pdu(prefix).has_value()) << "cut=" << cut;
    }
  }
}

TEST(MembershipPduFuzz, SeededGarbageNeverDecodesToNonsense) {
  Rng rng(0x1010);
  int decoded = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform(48));
    std::vector<std::uint8_t> bytes(size + 1);
    // Force the membership type bytes so the fuzz exercises these decoders
    // specifically, not the early type-dispatch reject.
    bytes[0] = static_cast<std::uint8_t>(9 + rng.uniform(3));
    for (std::size_t i = 1; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    const auto pdu = core::decode_pdu(bytes);
    if (!pdu.has_value()) continue;
    ++decoded;
    // Anything that decodes must satisfy the field validity contract.
    if (const auto* join = std::get_if<core::JoinRq>(&pdu.value())) {
      EXPECT_GE(join->from, 0);
      EXPECT_GE(join->attempt, 0);
    } else if (const auto* rq = std::get_if<core::SnapshotRq>(&pdu.value())) {
      EXPECT_GE(rq->from, 0);
    } else if (const auto* rsp = std::get_if<core::SnapshotRsp>(&pdu.value())) {
      EXPECT_GE(rsp->from, 0);
      for (const Seq s : rsp->baseline) EXPECT_GE(s, kNoSeq);
    } else {
      ADD_FAILURE() << "membership type byte decoded to a different PDU";
    }
  }
  // The length/validity checks must reject the overwhelming majority.
  EXPECT_LT(decoded, 200);
}

// Garbage injected at a live group's decode boundary is counted as
// rejected and never desyncs the protocol: the run still completes and the
// join still lands.
TEST(MembershipPduFuzz, GarbageFramesAtLiveBoundariesCountAndDontDesync) {
  Config config;
  config.n = 4;
  config.initial_members = 3;
  MemberGroup g(config);
  g.processes[3]->start();

  Rng rng(0xBAD);
  const auto spray = [&](ProcessId dst) {
    for (int i = 0; i < 20; ++i) {
      const auto size = static_cast<std::size_t>(rng.uniform(40));
      std::vector<std::uint8_t> bytes(size + 1);
      bytes[0] = static_cast<std::uint8_t>(9 + rng.uniform(3));
      for (std::size_t b = 1; b < bytes.size(); ++b) {
        bytes[b] = static_cast<std::uint8_t>(rng.uniform(256));
      }
      // Truncated prefixes of real frames too.
      if (i % 3 == 0) {
        auto real = core::encode_pdu(core::SnapshotRsp{0, {1, 2, 3, 4}});
        real.resize(real.size() / 2);
        bytes = std::move(real);
      }
      g.endpoints[(dst + 1) % 3]->send(dst, std::move(bytes));
    }
  };

  g.run_subruns(2);
  spray(0);  // member boundary: JOIN solicitations + snapshot requests
  spray(3);  // joiner boundary: snapshot responses mid-catch-up
  g.run_subruns(20);

  EXPECT_GT(g.at(0).counters().decode_rejected, 0u);
  EXPECT_GT(g.at(3).counters().decode_rejected, 0u);
  // No desync: the joiner still made it in and nobody halted.
  EXPECT_EQ(g.at(3).join_phase(), UrcgcProcess::JoinPhase::kMember);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(g.at(p).halted()) << "p" << p;
  }
}

// --- Serve-cache version across membership change ----------------------

// The recovery serve cache revalidates with one compare against
// History::version(). A membership change moves what a served snapshot may
// assume (the clean floor, the vector width) without touching the history
// table, so the version must bump on view growth even with zero stores and
// zero purges — otherwise a post-join joiner could be served a pre-join
// cached range. With an idle group the only version source is the
// membership bump, which is exactly what this test pins.
TEST(Membership, ViewGrowthBumpsHistoryVersionWithoutCleaning) {
  Config config;
  config.n = 4;
  config.initial_members = 3;
  MemberGroup g(config);

  g.run_subruns(6);
  const std::uint64_t version_before = g.at(0).mt().history().version();
  ASSERT_EQ(g.at(0).counters().cleanings, 0u);

  g.processes[3]->start();
  g.run_subruns(30);
  ASSERT_EQ(g.at(3).join_phase(), UrcgcProcess::JoinPhase::kMember);

  // Idle group: no stores, no purges — the version delta is the
  // membership bump alone.
  EXPECT_EQ(g.at(0).counters().cleanings, 0u);
  EXPECT_EQ(g.at(0).mt().history_size(), 0u);
  EXPECT_GT(g.at(0).mt().history().version(), version_before);
}

}  // namespace
}  // namespace urcgc
