// Golden wire pins for the control plane: a fixed n=1000 DECISION (with
// stability boundaries) and a fixed REQUEST, encoded full and delta, pinned
// as literals — the anchor digest, an FNV-1a of every frame's bytes, and
// the DecodeError every strict prefix of every frame is rejected with.
// The literals were computed by the byte-at-a-time codec; any codec
// rewrite must reproduce them exactly (DESIGN.md "Control-plane encoding":
// wire bytes and digests never change under an optimisation).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/delta.hpp"
#include "core/pdu.hpp"

namespace urcgc::core {
namespace {

constexpr int kN = 1000;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<Seq> boundary_row(int salt) {
  std::vector<Seq> row(kN);
  for (int j = 0; j < kN; ++j) row[j] = 2 * j + salt;
  return row;
}

/// The anchor: every vector populated, sentinels sprinkled in, one seq past
/// 2^32 (the u32 wire width truncates it), three stability boundaries.
Decision golden_anchor() {
  Decision d = Decision::initial(kN);
  d.decided_at = 4242;
  d.coordinator = 242;
  d.full_group = true;
  for (int j = 0; j < kN; ++j) {
    d.clean_upto[j] = j % 97 == 0 ? kNoSeq : 3 * j + 1;
    d.stable_acc[j] = d.clean_upto[j] + j % 7;
    d.heard[j] = j % 3 != 0;
    d.max_processed[j] = 5000 + 11 * j;
    d.most_updated[j] = j % 50 == 0 ? kNoProcess : (7 * j + 3) % kN;
    d.min_waiting[j] = j % 4 == 0 ? 100 + j : kNoSeq;
    d.attempts[j] = static_cast<std::uint8_t>(j % 4);
    d.alive[j] = j % 111 != 5;
  }
  d.max_processed[kN - 1] = (Seq{1} << 32) + 7;
  d.stability_epoch = 17;
  d.boundaries = {{4230, boundary_row(1)},
                  {4236, boundary_row(2)},
                  {4240, boundary_row(3)}};
  return d;
}

/// One subrun later: a few moved entries, and the boundary window drops
/// its oldest entry and appends a new one — the delta grammar's full reach.
Decision golden_successor(const Decision& anchor) {
  Decision d = anchor;
  d.decided_at = anchor.decided_at + 1;
  d.coordinator = 243;
  d.full_group = false;
  for (int j = 0; j < kN; j += 37) d.clean_upto[j] += 5;
  for (int j = 1; j < kN; j += 41) d.stable_acc[j] = kNoSeq;
  d.heard[10] = !d.heard[10];
  d.heard[999] = !d.heard[999];
  for (int j = 0; j < kN; j += 9) d.max_processed[j] += 2;
  d.most_updated[4] = kNoProcess;
  d.most_updated[50] = 12;
  d.min_waiting[8] = kNoSeq;
  d.min_waiting[9] = 77;
  d.attempts[5] = 3;
  d.stability_epoch = 18;
  d.boundaries.erase(d.boundaries.begin());
  d.boundaries.push_back({4243, boundary_row(4)});
  return d;
}

Request golden_request(const Decision& prev) {
  Request rq;
  rq.subrun = 4244;
  rq.from = 17;
  rq.prev_decision = prev;
  rq.last_processed = prev.max_processed;
  for (int j = 3; j < kN; j += 53) rq.last_processed[j] += 4;
  rq.oldest_waiting.assign(kN, kNoSeq);
  rq.oldest_waiting[2] = 901;
  rq.oldest_waiting[640] = 12;
  return rq;
}

Config golden_config() {
  Config config;
  config.n = kN;
  config.control_encoding = ControlEncoding::kDelta;
  return config;
}

struct Frames {
  Decision anchor = golden_anchor();
  Decision successor = golden_successor(anchor);
  Request request = golden_request(successor);
  std::vector<std::uint8_t> full_decision = encode_pdu(successor);
  std::vector<std::uint8_t> full_request = encode_pdu(request);
  std::vector<std::uint8_t> delta_decision;
  std::vector<std::uint8_t> delta_request;

  Frames() {
    const Config config = golden_config();
    bool was_delta = false;
    delta_decision =
        encode_decision_pdu(successor, anchor, config, true, &was_delta);
    EXPECT_TRUE(was_delta);
    was_delta = false;
    delta_request = encode_request_pdu(request, config, &was_delta);
    EXPECT_TRUE(was_delta);
  }
};

TEST(WireGolden, DigestsArePinned) {
  const Frames f;
  EXPECT_EQ(decision_digest(f.anchor), 5012356788233628049ULL);
  EXPECT_EQ(decision_digest(f.successor), 12486451982822975280ULL);
}

TEST(WireGolden, FrameBytesArePinned) {
  const Frames f;
  EXPECT_EQ(f.full_decision.size(), 31344u);
  EXPECT_EQ(fnv1a(f.full_decision), 5897729483094136981ULL);
  EXPECT_EQ(f.full_request.size(), 39364u);
  EXPECT_EQ(fnv1a(f.full_request), 14851814482257497690ULL);
  EXPECT_EQ(f.delta_decision.size(), 5083u);
  EXPECT_EQ(fnv1a(f.delta_decision), 16837788819058705515ULL);
  EXPECT_EQ(f.delta_request.size(), 157u);
  EXPECT_EQ(fnv1a(f.delta_request), 11333380360023443992ULL);
  // Full frames are sized up front: one allocation, no slack.
  EXPECT_EQ(f.full_decision.size(), 1 + decision_body_size(f.successor));
  EXPECT_EQ(f.full_decision.capacity(), f.full_decision.size());
  EXPECT_EQ(f.full_request.capacity(), f.full_request.size());
}

TEST(WireGolden, PinnedFramesDecode) {
  const Frames f;
  DecisionCache cache(8);
  cache.insert(f.anchor);
  DecodeContext ctx;
  ctx.cache = &cache;
  // The u32 wire width truncates the one oversized seq; everything else
  // round-trips exactly.
  Decision expected = f.successor;
  expected.max_processed[kN - 1] = static_cast<std::uint32_t>(
      expected.max_processed[kN - 1]);
  auto delta = decode_pdu(f.delta_decision, &ctx);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(std::get<Decision>(delta.value()), expected);
  auto full = decode_pdu(f.full_decision, &ctx);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(std::get<Decision>(full.value()), expected);
}

TEST(WireGolden, EveryStrictPrefixIsRejectedAsTruncated) {
  // Never a crash, never an anchor miss, and always the same error kind
  // the byte-at-a-time decoder reported: a prefix is a truncation.
  const Frames f;
  for (const auto* frame : {&f.full_decision, &f.full_request,
                            &f.delta_decision, &f.delta_request}) {
    // A rejected frame inserts nothing, so one cache serves every cut.
    DecisionCache cache(8);
    cache.insert(f.anchor);
    cache.insert(f.successor);
    const std::span<const std::uint8_t> bytes(*frame);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      DecodeContext ctx;
      ctx.cache = &cache;
      auto pdu = decode_pdu(bytes.first(cut), &ctx);
      ASSERT_FALSE(pdu.has_value()) << bytes.size() << " cut=" << cut;
      ASSERT_EQ(pdu.error(), wire::DecodeError::kTruncated)
          << bytes.size() << " cut=" << cut;
      ASSERT_FALSE(ctx.anchor_missed);
    }
  }
}

TEST(WireGolden, ByteFlipOutcomesArePinned) {
  // Complement one byte at every header position and at ~256 spread
  // positions past it, and tally the outcomes: type bytes, length
  // prefixes, sentinels, sparse indices and boundary counts all get hit,
  // so a decoder that reorders its checks or changes an error kind moves a
  // tally.
  // Index 0 counts decoded mutants, 1 + DecodeError the rejections, and
  // index 4 the rejections that were anchor misses.
  using Tally = std::array<std::size_t, 5>;
  const Frames f;
  const std::vector<std::uint8_t>* frames[] = {
      &f.full_decision, &f.full_request, &f.delta_decision, &f.delta_request};
  const Tally expected[] = {{313, 4, 0, 2, 0}, {315, 4, 0, 1, 0},
                            {265, 1, 0, 49, 16}, {100, 4, 0, 53, 16}};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<std::uint8_t>& frame = *frames[i];
    Tally tally{};
    // Room for every decodable mutant, so the anchors are never evicted.
    DecisionCache cache(1024);
    cache.insert(f.anchor);
    cache.insert(f.successor);
    const std::size_t stride = frame.size() / 256 + 1;
    for (std::size_t pos = 0; pos < frame.size();
         pos += pos < 64 ? 1 : stride) {
      std::vector<std::uint8_t> mutated = frame;
      mutated[pos] = static_cast<std::uint8_t>(~mutated[pos]);
      DecodeContext ctx;
      ctx.cache = &cache;
      auto pdu = decode_pdu(mutated, &ctx);
      ++tally[pdu.has_value() ? 0 : 1 + static_cast<int>(pdu.error())];
      tally[4] += ctx.anchor_missed ? 1 : 0;
    }
    EXPECT_EQ(tally, expected[i])
        << "frame " << i << ": " << tally[0] << "," << tally[1] << ","
        << tally[2] << "," << tally[3] << "," << tally[4];
  }
}

}  // namespace
}  // namespace urcgc::core
