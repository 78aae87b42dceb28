// Control-plane scale bench with machine-readable output.
//
// Sweeps group size x control-plane encoding on the deterministic sim,
// measuring what the delta encoding buys as n grows: REQUEST/DECISION
// bytes on the wire, control bytes per delivered message, and how often
// the delta path fell back to full snapshots (anchor rules, periodic
// refresh) or dropped a frame on an anchor miss. The group is a diffusion
// group with a small fixed server set, the shape the paper's scaling
// argument assumes: a few active senders in front of an arbitrarily large
// passive membership, so the O(n) vectors in full frames dwarf the
// O(active) sparse overrides in delta frames.
//
// Output: a human-readable table on stdout and, with --json=FILE, the
// BENCH_scale.json document whose schema PERFORMANCE.md documents field
// by field (validated in CI by tools/check_bench_schema.py).
//
// Usage:
//   bench_scale [--json=FILE] [--quick] [--messages=N] [--seed=S]
//
// Exit status: 0 iff every point validated (correctness clauses and
// quiescence) and the delta encoding cut control bytes per delivery by
// at least 5x at every measured n >= 1000.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "obs/registry.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace urcgc;
using bench::Options;

constexpr int kServerCount = 8;
constexpr double kRequiredRatio = 5.0;  // delta must win 5x at n >= 1000
constexpr int kRatioGateN = 1000;

struct RunResult {
  std::string encoding;
  int n = 0;
  int senders = 0;
  int snapshot_every = 0;
  std::uint64_t seed = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;  // deliveries summed over the whole group
  std::uint64_t request_bytes = 0;
  std::uint64_t decision_bytes = 0;
  std::uint64_t delta_fallbacks = 0;
  std::uint64_t delta_anchor_miss = 0;
  double wall_seconds = 0.0;
  bool ok = true;

  [[nodiscard]] std::uint64_t control_bytes() const {
    return request_bytes + decision_bytes;
  }
  [[nodiscard]] double bytes_per_delivery() const {
    if (delivered == 0) return 0.0;
    return static_cast<double>(control_bytes()) /
           static_cast<double>(delivered);
  }
};

RunResult run_point(const Options& options, int n,
                    core::ControlEncoding encoding) {
  return bench::timed([&] {
    harness::ExperimentConfig config;
    config.protocol.n = n;
    config.protocol.structure = core::GroupStructure::kDiffusion;
    config.protocol.server_count = std::min(kServerCount, n);
    config.protocol.control_encoding = encoding;
    config.workload.load = 0.8;
    config.workload.total_messages = options.messages;
    config.workload.cross_dep_prob = 0.2;
    config.seed = options.seed;
    config.limit_rtd = 600;

    obs::Registry registry(n);
    config.metrics = &registry;
    const auto report = harness::Experiment(config).run();

    RunResult result;
    result.encoding = std::string(core::to_string(encoding));
    result.n = n;
    result.senders = config.protocol.server_count;
    result.snapshot_every = config.protocol.delta_snapshot_every;
    result.seed = options.seed;
    result.generated = report.generated;
    result.delivered = report.processed_events;
    result.request_bytes = report.traffic.bytes(stats::MsgClass::kRequest);
    result.decision_bytes = report.traffic.bytes(stats::MsgClass::kDecision);
    result.delta_fallbacks =
        registry.counter_total(registry.find("core.delta_fallbacks"));
    result.delta_anchor_miss =
        registry.counter_total(registry.find("core.delta_anchor_miss"));
    result.ok = report.all_ok() && report.quiescent &&
                report.workload_exhausted && result.delivered > 0;
    return result;
  });
}

bench::Row json_row(const RunResult& r) {
  bench::Row row;
  row.str("backend", "sim")
      .str("encoding", r.encoding)
      .integer("n", r.n)
      .integer("senders", r.senders)
      .integer("snapshot_every", r.snapshot_every)
      .integer("seed", r.seed)
      .integer("messages_generated", r.generated)
      .integer("messages_delivered", r.delivered)
      .integer("request_bytes", r.request_bytes)
      .integer("decision_bytes", r.decision_bytes)
      .real("control_bytes_per_delivery", r.bytes_per_delivery(), 3)
      .integer("delta_fallbacks", r.delta_fallbacks)
      .integer("delta_anchor_miss", r.delta_anchor_miss)
      .real("wall_seconds", r.wall_seconds, 6)
      .boolean("ok", r.ok);
  return row;
}

int run_sweep(const Options& options) {
  std::vector<int> group_sizes{50, 200, 1000, 4000};
  if (options.quick) group_sizes = {200};
  const std::vector<core::ControlEncoding> encodings{
      core::ControlEncoding::kFull, core::ControlEncoding::kDelta};

  std::printf(
      "Control-plane scale sweep — %lld messages per point, seed %llu, "
      "diffusion group with %d servers\n\n",
      static_cast<long long>(options.messages),
      static_cast<unsigned long long>(options.seed), kServerCount);

  harness::Table table({"n", "encoding", "rq bytes", "dec bytes",
                        "B/delivery", "fallbacks", "anchor miss", "wall s"});
  std::vector<RunResult> results;
  bool all_ok = true;
  for (int n : group_sizes) {
    for (core::ControlEncoding encoding : encodings) {
      RunResult r = run_point(options, n, encoding);
      if (!r.ok) {
        std::fprintf(stderr, "VALIDATION FAILED: n=%d encoding=%s\n", n,
                     r.encoding.c_str());
        all_ok = false;
      }
      table.row({harness::Table::num(n, 0), r.encoding,
                 harness::Table::num(static_cast<double>(r.request_bytes), 0),
                 harness::Table::num(static_cast<double>(r.decision_bytes), 0),
                 harness::Table::num(r.bytes_per_delivery(), 2),
                 harness::Table::num(static_cast<double>(r.delta_fallbacks), 0),
                 harness::Table::num(
                     static_cast<double>(r.delta_anchor_miss), 0),
                 harness::Table::num(r.wall_seconds, 2)});
      results.push_back(std::move(r));
    }
  }
  table.print();

  // Headline the acceptance criterion tracks: at every measured n the
  // delta encoding must spend fewer control bytes per delivered message
  // than full frames, and from n = 1000 up the reduction must be >= 5x.
  std::printf("\nheadline: full -> delta control bytes per delivery\n");
  for (int n : group_sizes) {
    const RunResult* full = nullptr;
    const RunResult* delta = nullptr;
    for (const RunResult& r : results) {
      if (r.n != n) continue;
      (r.encoding == "full" ? full : delta) = &r;
    }
    if (full == nullptr || delta == nullptr) continue;
    const double before = full->bytes_per_delivery();
    const double after = delta->bytes_per_delivery();
    const double ratio = after > 0.0 ? before / after : 0.0;
    const bool gated = n >= kRatioGateN;
    const bool pass = after < before && (!gated || ratio >= kRequiredRatio);
    std::printf("  n=%-5d %.1f -> %.1f B/delivery (%.1fx%s): %s\n", n,
                before, after, ratio,
                gated ? ", requirement >= 5x" : "", pass ? "OK" : "FAIL");
    if (!pass) all_ok = false;
  }

  if (!options.json_path.empty()) bench::write_json(options, results, json_row);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_sweep(
      bench::parse(argc, argv, {.bench = "bench_scale", .messages = 96}));
}
