#include <gtest/gtest.h>

#include "core/coordinator.hpp"

namespace urcgc::core {
namespace {

Request make_request(ProcessId from, SubrunId subrun, int n,
                     std::vector<Seq> last_processed = {},
                     std::vector<Seq> oldest_waiting = {}) {
  Request rq;
  rq.from = from;
  rq.subrun = subrun;
  rq.last_processed =
      last_processed.empty() ? std::vector<Seq>(n, kNoSeq) : last_processed;
  rq.oldest_waiting =
      oldest_waiting.empty() ? std::vector<Seq>(n, kNoSeq) : oldest_waiting;
  rq.prev_decision = Decision::initial(n);
  return rq;
}

CoordinatorInputs base_inputs(int n, SubrunId subrun = 0,
                              ProcessId coordinator = 0) {
  CoordinatorInputs inputs;
  inputs.subrun = subrun;
  inputs.coordinator = coordinator;
  inputs.k_attempts = 3;
  inputs.base = Decision::initial(n);
  return inputs;
}

TEST(Freshest, PicksLargestDecidedAt) {
  Decision a = Decision::initial(3);
  a.decided_at = 1;
  Decision b = Decision::initial(3);
  b.decided_at = 5;
  Decision c = Decision::initial(3);
  c.decided_at = 3;
  const Decision* candidates[] = {&a, &b, &c};
  EXPECT_EQ(&freshest(candidates), &b);
}

TEST(Freshest, SingleCandidate) {
  Decision a = Decision::initial(2);
  const Decision* candidates[] = {&a};
  EXPECT_EQ(&freshest(candidates), &a);
}

TEST(ComputeDecision, StampsSubrunAndCoordinator) {
  auto inputs = base_inputs(3, 7, 2);
  inputs.requests = {make_request(0, 7, 3), make_request(1, 7, 3),
                     make_request(2, 7, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.decided_at, 7);
  EXPECT_EQ(d.coordinator, 2);
}

TEST(ComputeDecision, AllHeardMeansFullGroup) {
  auto inputs = base_inputs(3);
  inputs.requests = {make_request(0, 0, 3, {1, 2, 3}),
                     make_request(1, 0, 3, {1, 1, 3}),
                     make_request(2, 0, 3, {2, 2, 2})};
  Decision d = compute_decision(inputs);
  EXPECT_TRUE(d.full_group);
  // clean_upto is the element-wise minimum of contributions.
  EXPECT_EQ(d.clean_upto, (std::vector<Seq>{1, 1, 2}));
  // Accumulation window reopened, seeded by the same contributors.
  EXPECT_EQ(d.stable_acc, (std::vector<Seq>{1, 1, 2}));
  for (int j = 0; j < 3; ++j) EXPECT_TRUE(d.heard[j]);
}

TEST(ComputeDecision, PartialHearingNoFullGroup) {
  auto inputs = base_inputs(3);
  inputs.requests = {make_request(0, 0, 3, {5, 5, 5}),
                     make_request(1, 0, 3, {4, 4, 4})};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.full_group);
  EXPECT_EQ(d.clean_upto, (std::vector<Seq>(3, kNoSeq)));
  EXPECT_EQ(d.stable_acc, (std::vector<Seq>{4, 4, 4}));
  EXPECT_TRUE(d.heard[0]);
  EXPECT_TRUE(d.heard[1]);
  EXPECT_FALSE(d.heard[2]);
}

TEST(ComputeDecision, AccumulationAcrossSubruns) {
  // Subrun 0: p0, p1 heard. Subrun 1: p2 heard -> coverage complete.
  auto first = base_inputs(3, 0, 0);
  first.requests = {make_request(0, 0, 3, {5, 5, 5}),
                    make_request(1, 0, 3, {4, 6, 4})};
  Decision d0 = compute_decision(first);
  ASSERT_FALSE(d0.full_group);

  auto second = base_inputs(3, 1, 1);
  second.base = d0;
  second.requests = {make_request(2, 1, 3, {9, 9, 3})};
  Decision d1 = compute_decision(second);
  EXPECT_TRUE(d1.full_group);
  EXPECT_EQ(d1.clean_upto, (std::vector<Seq>{4, 5, 3}));
  // New window seeded by subrun 1's sole contributor.
  EXPECT_EQ(d1.stable_acc, (std::vector<Seq>{9, 9, 3}));
  EXPECT_TRUE(d1.heard[2]);
  EXPECT_FALSE(d1.heard[0]);
  EXPECT_FALSE(d1.heard[1]);
}

TEST(ComputeDecision, AttemptsIncrementForSilent) {
  auto inputs = base_inputs(3);
  inputs.requests = {make_request(0, 0, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.attempts[0], 0);
  EXPECT_EQ(d.attempts[1], 1);
  EXPECT_EQ(d.attempts[2], 1);
  EXPECT_TRUE(d.alive[1]);
  EXPECT_TRUE(d.alive[2]);
}

TEST(ComputeDecision, AttemptsResetWhenHeard) {
  auto inputs = base_inputs(3, 4);
  inputs.base.attempts = {2, 2, 0};
  inputs.requests = {make_request(0, 4, 3), make_request(2, 4, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.attempts[0], 0);
  EXPECT_EQ(d.attempts[1], 3);  // still silent
  EXPECT_EQ(d.attempts[2], 0);
}

TEST(ComputeDecision, RemovalAtKAttempts) {
  auto inputs = base_inputs(3);
  inputs.k_attempts = 2;
  inputs.base.attempts = {0, 1, 0};
  inputs.requests = {make_request(0, 0, 3), make_request(2, 0, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.alive[1]);  // reached K=2
  EXPECT_TRUE(d.alive[0]);
  EXPECT_TRUE(d.alive[2]);
}

// quorum_cuts: a coordinator that heard fewer than n/2+1 members may sit in
// a minority partition, so it must not cut anyone (n = 5: majority is 3).
CoordinatorInputs minority_subrun(bool quorum_cuts) {
  auto inputs = base_inputs(5);
  inputs.k_attempts = 2;
  inputs.quorum_cuts = quorum_cuts;
  inputs.base.attempts = {0, 1, 0, 0, 0};
  inputs.requests = {make_request(0, 0, 5), make_request(2, 0, 5)};
  return inputs;
}

TEST(ComputeDecision, QuorumCutsHoldRemovalWithoutMajority) {
  Decision d = compute_decision(minority_subrun(/*quorum_cuts=*/true));
  EXPECT_TRUE(d.alive[1]);  // at K attempts, but only 2 of 5 reported
  EXPECT_EQ(d.attempts[1], 2);  // attempts still accumulate
  EXPECT_EQ(d.attempts[3], 1);
  EXPECT_EQ(d.attempts[4], 1);
  for (ProcessId q = 0; q < 5; ++q) EXPECT_TRUE(d.alive[q]) << q;
}

TEST(ComputeDecision, QuorumCutsRemoveOnceMajorityReports) {
  const Decision held = compute_decision(minority_subrun(true));
  ASSERT_TRUE(held.alive[1]);
  auto inputs = base_inputs(5, /*subrun=*/1);
  inputs.k_attempts = 2;
  inputs.quorum_cuts = true;
  inputs.base = held;
  inputs.requests = {make_request(0, 1, 5), make_request(2, 1, 5),
                     make_request(3, 1, 5), make_request(4, 1, 5)};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.alive[1]);  // the majority is back: cut at once
  EXPECT_EQ(d.attempts[3], 0);
  EXPECT_EQ(d.attempts[4], 0);
  EXPECT_TRUE(d.alive[0] && d.alive[2] && d.alive[3] && d.alive[4]);
}

TEST(ComputeDecision, WithoutQuorumCutsRemovalIgnoresReporterCount) {
  Decision d = compute_decision(minority_subrun(/*quorum_cuts=*/false));
  EXPECT_FALSE(d.alive[1]);  // K attempts cut it, 2 of 5 reporters or not
  EXPECT_TRUE(d.alive[0] && d.alive[2] && d.alive[3] && d.alive[4]);
}

TEST(ComputeDecision, RemovedProcessNotRequiredForCoverage) {
  auto inputs = base_inputs(3);
  inputs.k_attempts = 1;  // silence once -> removed immediately
  inputs.requests = {make_request(0, 0, 3, {3, 3, 3}),
                     make_request(2, 0, 3, {2, 2, 2})};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.alive[1]);
  EXPECT_TRUE(d.full_group);  // coverage over the surviving members
  EXPECT_EQ(d.clean_upto, (std::vector<Seq>{2, 2, 2}));
}

TEST(ComputeDecision, DeadProcessesStayDead) {
  auto inputs = base_inputs(3);
  inputs.base.alive[1] = false;
  inputs.requests = {make_request(0, 0, 3), make_request(1, 0, 3),
                     make_request(2, 0, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.alive[1]);  // its request is ignored, no resurrection
  EXPECT_TRUE(d.full_group);
}

TEST(ComputeDecision, DuplicateRequestsIgnored) {
  auto inputs = base_inputs(2);
  inputs.requests = {make_request(0, 0, 2, {5, 0}),
                     make_request(0, 0, 2, {9, 9}),  // duplicate copy
                     make_request(1, 0, 2, {1, 1})};
  Decision d = compute_decision(inputs);
  // The duplicate's values must not have been folded into stability.
  EXPECT_EQ(d.clean_upto, (std::vector<Seq>{1, 0}));
}

TEST(ComputeDecision, MaxProcessedFreshFromRequests) {
  auto inputs = base_inputs(3);
  // Base claims p9000-level knowledge from a previous holder...
  inputs.base.max_processed = {100, 100, 100};
  inputs.base.most_updated = {1, 1, 1};
  // ...but this subrun's reports top out lower.
  inputs.requests = {make_request(0, 0, 3, {7, 2, 0}),
                     make_request(2, 0, 3, {5, 3, 0})};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.max_processed, (std::vector<Seq>{7, 3, 0}));
  EXPECT_EQ(d.most_updated[0], 0);
  EXPECT_EQ(d.most_updated[1], 2);
  EXPECT_EQ(d.most_updated[2], kNoProcess);  // nobody processed any
}

TEST(ComputeDecision, MinWaitingFreshMinimum) {
  auto inputs = base_inputs(3);
  inputs.requests = {
      make_request(0, 0, 3, {}, {kNoSeq, 5, kNoSeq}),
      make_request(1, 0, 3, {}, {kNoSeq, 3, 9}),
      make_request(2, 0, 3, {}, {kNoSeq, kNoSeq, 11}),
  };
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.min_waiting, (std::vector<Seq>{kNoSeq, 3, 9}));
}

TEST(ComputeDecision, MinWaitingNotInheritedFromBase) {
  auto inputs = base_inputs(2);
  inputs.base.min_waiting = {7, 7};
  inputs.requests = {make_request(0, 0, 2), make_request(1, 0, 2)};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.min_waiting, (std::vector<Seq>{kNoSeq, kNoSeq}));
}

TEST(ComputeDecision, CleanUptoClearedWhenNotFullGroup) {
  auto inputs = base_inputs(3);
  inputs.base.full_group = true;
  inputs.base.clean_upto = {9, 9, 9};
  inputs.requests = {make_request(0, 0, 3)};
  Decision d = compute_decision(inputs);
  EXPECT_FALSE(d.full_group);
  EXPECT_EQ(d.clean_upto, (std::vector<Seq>(3, kNoSeq)));
}

TEST(ComputeDecision, EmptyRequestsStillProgresses) {
  auto inputs = base_inputs(3, 5);
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.decided_at, 5);
  EXPECT_FALSE(d.full_group);
  EXPECT_EQ(d.attempts[0], 1);
  EXPECT_EQ(d.attempts[1], 1);
  EXPECT_EQ(d.attempts[2], 1);
}

TEST(ComputeDecision, AttemptsSaturateWithoutOverflow) {
  auto inputs = base_inputs(2);
  inputs.base.attempts = {255, 0};
  inputs.base.alive[0] = false;
  inputs.requests = {make_request(1, 0, 2)};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.attempts[0], 255);  // clamped, no wraparound resurrection
  EXPECT_FALSE(d.alive[0]);
}

TEST(ComputeDecision, TieBreakPrefersAliveHolder) {
  auto inputs = base_inputs(3);
  inputs.base.alive[0] = false;
  // p0 is dead but its request is ignored anyway; p1 and p2 report equal
  // knowledge of origin 0 — the holder picked must be alive.
  inputs.requests = {make_request(1, 0, 3, {4, 1, 0}),
                     make_request(2, 0, 3, {4, 0, 1})};
  Decision d = compute_decision(inputs);
  EXPECT_EQ(d.max_processed[0], 4);
  EXPECT_TRUE(d.most_updated[0] == 1 || d.most_updated[0] == 2);
  EXPECT_TRUE(d.alive[d.most_updated[0]]);
}

}  // namespace
}  // namespace urcgc::core
