#pragma once
// Experiment metrics: end-to-end delay tracking (Figure 4), control
// traffic accounting by message class (Table 1), and time series such as
// history length over simulated time (Figure 6).

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "stats/summary.hpp"

namespace urcgc::stats {

/// Protocol message classes, across urcgc and the baselines, used to split
/// traffic accounting the way Table 1 does (control vs data).
enum class MsgClass : int {
  kAppData = 0,
  kRequest,          // urcgc per-subrun REQUEST to the coordinator
  kDecision,         // urcgc coordinator DECISION broadcast
  kRecoverRq,        // urcgc point-to-point history recovery request
  kRecoverRsp,       // urcgc history recovery response
  kCbcastData,
  kCbcastStability,  // CBCAST explicit stability messages
  kCbcastFlush,      // CBCAST view-change flush
  kPsyncData,
  kPsyncRetransRq,
  kPsyncMaskOut,
  kTransportAck,
  kJoin,             // urcgc membership: JOIN solicitations + snapshot handshake
  kCount,
};

[[nodiscard]] std::string_view to_string(MsgClass cls);

/// True for the classes Table 1 counts as control traffic.
[[nodiscard]] bool is_control(MsgClass cls);

class TrafficAccountant {
 public:
  /// Mirrors every subsequent record into `registry`: counters
  /// "traffic.msgs.<class>" and "traffic.bytes.<class>" plus the max
  /// gauge "traffic.max_bytes.<class>", on the shard named per record
  /// call. Registers the handles up front (assembly phase), so the
  /// record path stays registration-free.
  void bind(obs::Registry* registry);

  void record(MsgClass cls, std::size_t bytes) {
    record(kNoProcess, cls, bytes);
  }

  /// Shard-attributed record: `p` is the process whose execution context
  /// this call runs in (kNoProcess for driver-side accounting).
  void record(ProcessId p, MsgClass cls, std::size_t bytes) {
    auto& cell = cells_[static_cast<std::size_t>(cls)];
    ++cell.count;
    cell.bytes += bytes;
    if (bytes > cell.max_bytes) cell.max_bytes = bytes;
    if (registry_ != nullptr) {
      const auto i = static_cast<std::size_t>(cls);
      registry_->add(p, m_msgs_[i]);
      registry_->add(p, m_bytes_[i], bytes);
      registry_->set_max(p, m_max_bytes_[i], static_cast<double>(bytes));
    }
  }

  [[nodiscard]] std::uint64_t count(MsgClass cls) const {
    return cells_[static_cast<std::size_t>(cls)].count;
  }
  [[nodiscard]] std::uint64_t bytes(MsgClass cls) const {
    return cells_[static_cast<std::size_t>(cls)].bytes;
  }
  [[nodiscard]] std::uint64_t max_bytes(MsgClass cls) const {
    return cells_[static_cast<std::size_t>(cls)].max_bytes;
  }

  [[nodiscard]] std::uint64_t control_count() const;
  [[nodiscard]] std::uint64_t control_bytes() const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_bytes = 0;
  };
  std::array<Cell, static_cast<std::size_t>(MsgClass::kCount)> cells_{};

  obs::Registry* registry_ = nullptr;
  std::array<obs::Metric, static_cast<std::size_t>(MsgClass::kCount)> m_msgs_{};
  std::array<obs::Metric, static_cast<std::size_t>(MsgClass::kCount)>
      m_bytes_{};
  std::array<obs::Metric, static_cast<std::size_t>(MsgClass::kCount)>
      m_max_bytes_{};
};

/// Tracks, for every application message, generation time and per-process
/// processing times. Mean end-to-end delay D (Figure 4) is the average of
/// (processing tick − generation tick) over all (message, processor) pairs.
class DelayTracker {
 public:
  /// Mirrors every (message, processor) delay into `registry` as the
  /// "delay.ticks" histogram on the processor's shard, as the events
  /// stream in.
  void bind(obs::Registry* registry);

  void on_generated(const Mid& mid, Tick at);
  void on_processed(const Mid& mid, ProcessId by, Tick at);

  [[nodiscard]] std::vector<double> delays_ticks() const;

  [[nodiscard]] std::size_t generated_count() const { return sent_.size(); }
  [[nodiscard]] std::uint64_t processed_events() const {
    return processed_events_;
  }

 private:
  std::unordered_map<Mid, Tick> sent_;
  std::unordered_map<Mid, std::vector<Tick>> processed_;
  std::uint64_t processed_events_ = 0;

  obs::Registry* registry_ = nullptr;
  obs::Metric m_delay_{};
};

/// Step time series sampled by the harness (e.g. history length per round).
class TimeSeries {
 public:
  void record(Tick at, double value) { points_.push_back({at, value}); }

  [[nodiscard]] std::span<const std::pair<Tick, double>> points() const {
    return points_;
  }
  [[nodiscard]] double max_value() const;
  [[nodiscard]] bool empty() const { return points_.empty(); }

 private:
  std::vector<std::pair<Tick, double>> points_;
};

}  // namespace urcgc::stats
