#include "stats/metrics.hpp"

#include <algorithm>
#include <string>

namespace urcgc::stats {

std::string_view to_string(MsgClass cls) {
  switch (cls) {
    case MsgClass::kAppData: return "app-data";
    case MsgClass::kRequest: return "request";
    case MsgClass::kDecision: return "decision";
    case MsgClass::kRecoverRq: return "recover-rq";
    case MsgClass::kRecoverRsp: return "recover-rsp";
    case MsgClass::kCbcastData: return "cbcast-data";
    case MsgClass::kCbcastStability: return "cbcast-stability";
    case MsgClass::kCbcastFlush: return "cbcast-flush";
    case MsgClass::kPsyncData: return "psync-data";
    case MsgClass::kPsyncRetransRq: return "psync-retrans-rq";
    case MsgClass::kPsyncMaskOut: return "psync-mask-out";
    case MsgClass::kTransportAck: return "transport-ack";
    case MsgClass::kJoin: return "join";
    case MsgClass::kCount: break;
  }
  return "?";
}

bool is_control(MsgClass cls) {
  switch (cls) {
    case MsgClass::kAppData:
    case MsgClass::kCbcastData:
    case MsgClass::kPsyncData:
      return false;
    default:
      return true;
  }
}

void TrafficAccountant::bind(obs::Registry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::string cls(to_string(static_cast<MsgClass>(i)));
    m_msgs_[i] = registry_->counter("traffic.msgs." + cls);
    m_bytes_[i] = registry_->counter("traffic.bytes." + cls);
    m_max_bytes_[i] = registry_->gauge("traffic.max_bytes." + cls);
  }
}

std::uint64_t TrafficAccountant::control_count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (is_control(static_cast<MsgClass>(i))) total += cells_[i].count;
  }
  return total;
}

std::uint64_t TrafficAccountant::control_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (is_control(static_cast<MsgClass>(i))) total += cells_[i].bytes;
  }
  return total;
}

void DelayTracker::bind(obs::Registry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  // 5-tick-wide buckets cover the normal couple-of-subruns range; the
  // overflow bucket (with exact max) absorbs recovery-delayed tails.
  m_delay_ = registry_->histogram("delay.ticks",
                                  obs::HistogramSpec{0.0, 200.0, 40});
}

void DelayTracker::on_generated(const Mid& mid, Tick at) {
  sent_.emplace(mid, at);
}

void DelayTracker::on_processed(const Mid& mid, ProcessId by, Tick at) {
  processed_[mid].push_back(at);
  ++processed_events_;
  if (registry_ != nullptr) {
    auto sent = sent_.find(mid);
    if (sent != sent_.end()) {
      registry_->observe(by, m_delay_,
                         static_cast<double>(at - sent->second));
    }
  }
}

std::vector<double> DelayTracker::delays_ticks() const {
  std::vector<double> delays;
  delays.reserve(processed_events_);
  for (const auto& [mid, events] : processed_) {
    auto sent = sent_.find(mid);
    if (sent == sent_.end()) continue;
    for (Tick at : events) {
      delays.push_back(static_cast<double>(at - sent->second));
    }
  }
  return delays;
}

double TimeSeries::max_value() const {
  double best = 0.0;
  for (const auto& [at, value] : points_) best = std::max(best, value);
  return best;
}

}  // namespace urcgc::stats
