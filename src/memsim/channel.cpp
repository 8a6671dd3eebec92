#include "memsim/channel.h"

#include <algorithm>

#include "common/require.h"

namespace topick::mem {

namespace {
constexpr std::uint64_t kNever = UINT64_MAX;
}  // namespace

Channel::Channel(const DramConfig& config)
    : config_(&config),
      queue_limit_(static_cast<std::size_t>(config.queue_depth)),
      next_refresh_(static_cast<std::uint64_t>(config.timing.t_refi)) {
  banks_.reserve(static_cast<std::size_t>(config.banks_per_channel));
  for (int b = 0; b < config.banks_per_channel; ++b) {
    banks_.emplace_back(config.timing);
  }
  queue_.reserve(queue_limit_);
}

void Channel::enqueue(const MemRequest& request, const LocalAddr& local) {
  require(can_accept(), "Channel: queue full (check can_accept first)");
  require(local.bank < banks_.size(), "Channel: bank out of range");
  queue_.push_back(QueuedRequest{request, local});
  wake_ = 0;
}

void Channel::maybe_refresh(std::uint64_t now) {
  if (!config_->enable_refresh) return;
  if (now < next_refresh_) return;
  refresh_until_ = now + static_cast<std::uint64_t>(config_->timing.t_rfc);
  next_refresh_ += static_cast<std::uint64_t>(config_->timing.t_refi);
  for (auto& bank : banks_) bank.force_precharge(refresh_until_);
  ++stats_.refreshes;
}

std::size_t Channel::pick_request(std::uint64_t now) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const auto& qr = queue_[i];
    if (banks_[qr.local.bank].row_hit_ready(qr.local.row, now)) return i;
  }
  return 0;
}

std::uint64_t Channel::next_event(std::uint64_t now) const {
  std::uint64_t next = kNever;
  if (config_->enable_refresh) next = std::max(now, next_refresh_);
  if (!in_flight_.empty()) {
    next = std::min(next, std::max(now, in_flight_.front().done_cycle));
  }
  if (!queue_.empty()) {
    std::uint64_t issue = std::max(now, refresh_until_);
    if (fault_ != nullptr) issue = fault_->next_unstalled(issue);
    next = std::min(next, issue);
  }
  return next;
}

void Channel::skip_to(std::uint64_t now, std::uint64_t target) {
  // With work queued, every skipped cycle past the refresh window lies in a
  // stall window (target <= next_event(now)), and tick() counts each one.
  if (fault_ == nullptr || queue_.empty()) return;
  const std::uint64_t from = std::max(now, refresh_until_);
  if (target > from) stats_.fault_stall_cycles += target - from;
}

void Channel::tick(std::uint64_t now, std::vector<MemResponse>& done,
                   std::vector<TraceEntry>* trace) {
  maybe_refresh(now);

  while (!in_flight_.empty() && in_flight_.front().done_cycle <= now) {
    done.push_back(MemResponse{in_flight_.front().request.id, now});
    in_flight_.pop_front();
  }

  // No issue while refreshing. An injected stall window blocks issue too
  // (in-flight bursts still drained above) and is counted only while work
  // is actually blocked.
  if (now >= refresh_until_ && !queue_.empty()) {
    if (fault_ != nullptr && fault_->stalled(now)) {
      ++stats_.fault_stall_cycles;
    } else {
      issue(now, trace);
    }
  }

  // Work still queued past the refresh window can issue next cycle, and a
  // queue under a fault keeps ticking so each stalled cycle is counted.
  const bool busy = !queue_.empty() &&
                    (fault_ != nullptr || now + 1 >= refresh_until_);
  wake_ = busy ? now + 1 : next_event(now + 1);
}

void Channel::issue(std::uint64_t now, std::vector<TraceEntry>* trace) {
  // Commit the chosen request: the bank walks through its PRE/ACT/RD
  // sequence (reserved via issue_read), the data burst starts after CAS
  // latency once the shared data bus frees up. One commit per clock models
  // the command-bus bandwidth.
  const std::size_t pick = pick_request(now);
  const QueuedRequest qr = queue_[pick];
  queue_.erase(pick);
  auto& bank = banks_[qr.local.bank];
  const bool was_hit = bank.row_open(qr.local.row);
  const std::uint64_t col_cycle = bank.issue_read(qr.local.row, now);
  // A degraded channel stretches every burst (reduced data-bus throughput).
  const std::uint64_t burst_cycles =
      fault_ != nullptr
          ? fault_->burst_cycles(config_->timing.t_burst)
          : static_cast<std::uint64_t>(config_->timing.t_burst);
  const std::uint64_t burst_start =
      std::max(col_cycle + static_cast<std::uint64_t>(config_->timing.t_cl),
               data_bus_free_);
  data_bus_free_ = burst_start + burst_cycles;

  if (trace != nullptr) {
    trace->push_back(TraceEntry{now, qr.request.addr, 0, was_hit});
  }
  ++stats_.requests;
  stats_.bytes_read += static_cast<std::uint64_t>(config_->transaction_bytes);
  stats_.data_bus_busy_cycles += burst_cycles;
  if (was_hit) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
    ++stats_.activates;
  }

  in_flight_.push_back(InFlight{qr.request, burst_start + burst_cycles});
}

}  // namespace topick::mem
