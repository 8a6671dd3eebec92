// Test-only reference model of the HBM2 replay: the plain per-cycle clock
// the event-driven src/memsim/ model must reproduce cycle for cycle. Every
// channel ticks on every cycle; retirement scans the whole in-flight list;
// the request queue is a std::deque with a middle erase; the address map
// divides where mem::Hbm shifts. Only the bank state machine (memsim/bank.h)
// and the config/transaction types are shared with the model under test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "memsim/bank.h"
#include "memsim/channel.h"
#include "memsim/dram_config.h"
#include "memsim/types.h"

namespace topick::mem::reference {

class Channel {
 public:
  explicit Channel(const DramConfig& config)
      : config_(&config),
        queue_limit_(static_cast<std::size_t>(config.queue_depth)),
        next_refresh_(static_cast<std::uint64_t>(config.timing.t_refi)) {
    for (int b = 0; b < config.banks_per_channel; ++b) {
      banks_.emplace_back(config.timing);
    }
  }

  bool can_accept() const { return queue_.size() < queue_limit_; }
  void enqueue(const MemRequest& request, const LocalAddr& local) {
    queue_.push_back(Queued{request, local});
  }

  void tick(std::uint64_t now, std::vector<MemResponse>& done,
            std::vector<TraceEntry>* trace = nullptr) {
    if (config_->enable_refresh && now >= next_refresh_) {
      refresh_until_ = now + static_cast<std::uint64_t>(config_->timing.t_rfc);
      next_refresh_ += static_cast<std::uint64_t>(config_->timing.t_refi);
      for (auto& bank : banks_) bank.force_precharge(refresh_until_);
      ++stats_.refreshes;
    }
    for (std::size_t i = 0; i < in_flight_.size();) {
      if (in_flight_[i].done_cycle <= now) {
        done.push_back(MemResponse{in_flight_[i].request.id, now});
        in_flight_[i] = in_flight_.back();
        in_flight_.pop_back();
      } else {
        ++i;
      }
    }
    if (now < refresh_until_) return;
    if (fault_ != nullptr && fault_->stalled(now)) {
      if (!queue_.empty()) ++stats_.fault_stall_cycles;
      return;
    }
    if (queue_.empty()) return;

    // FR-FCFS: the oldest row hit whose bank can take the column command
    // now, else the oldest request.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Bank& bank = banks_[queue_[i].local.bank];
      if (bank.row_open(queue_[i].local.row) &&
          bank.earliest_read_cycle(queue_[i].local.row, now) == now) {
        pick = i;
        break;
      }
    }
    const Queued qr = queue_[pick];
    Bank& bank = banks_[qr.local.bank];
    const bool was_hit = bank.row_open(qr.local.row);
    const std::uint64_t col_cycle = bank.issue_read(qr.local.row, now);
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
    queue_.erase(queue_.begin() + static_cast<long>(pick));
  }

  std::size_t pending() const { return queue_.size() + in_flight_.size(); }
  const DramStats& stats() const { return stats_; }
  void set_fault(const ChannelFault* fault) { fault_ = fault; }

 private:
  struct Queued {
    MemRequest request;
    LocalAddr local;
  };
  struct InFlight {
    MemRequest request;
    std::uint64_t done_cycle = 0;
  };

  const DramConfig* config_;
  std::size_t queue_limit_;
  std::vector<Bank> banks_;
  std::deque<Queued> queue_;
  std::vector<InFlight> in_flight_;
  std::uint64_t data_bus_free_ = 0;
  std::uint64_t next_refresh_ = 0;
  std::uint64_t refresh_until_ = 0;
  const ChannelFault* fault_ = nullptr;
  DramStats stats_;
};

// The global serial clock over reference channels, with the same address
// map as mem::Hbm.
class Hbm {
 public:
  explicit Hbm(const DramConfig& config) : config_(config) {
    for (int c = 0; c < config.channels; ++c) channels_.emplace_back(config_);
  }

  int channel_of(std::uint64_t addr) const {
    const std::uint64_t granule = addr / config_.transaction_bytes;
    return static_cast<int>(granule %
                            static_cast<std::uint64_t>(config_.channels));
  }
  LocalAddr local_of(std::uint64_t addr) const {
    std::uint64_t g = addr / config_.transaction_bytes /
                      static_cast<std::uint64_t>(config_.channels);
    LocalAddr local;
    local.bank = g % static_cast<std::uint64_t>(config_.banks_per_channel);
    g /= static_cast<std::uint64_t>(config_.banks_per_channel);
    local.column = g % static_cast<std::uint64_t>(config_.columns_per_row());
    local.row = g / static_cast<std::uint64_t>(config_.columns_per_row());
    return local;
  }

  bool try_enqueue(const MemRequest& request) {
    auto& channel =
        channels_[static_cast<std::size_t>(channel_of(request.addr))];
    if (!channel.can_accept()) return false;
    channel.enqueue(request, local_of(request.addr));
    return true;
  }

  void tick() {
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const std::size_t before = trace_.size();
      channels_[c].tick(cycle_, responses_, &trace_);
      for (std::size_t i = before; i < trace_.size(); ++i) {
        trace_[i].channel = static_cast<int>(c);
      }
    }
    ++cycle_;
  }

  std::vector<MemResponse> drain_responses() {
    std::vector<MemResponse> out;
    out.swap(responses_);
    return out;
  }

  std::uint64_t cycle() const { return cycle_; }
  std::size_t pending() const {
    std::size_t total = 0;
    for (const auto& channel : channels_) total += channel.pending();
    return total;
  }
  std::size_t channel_count() const { return channels_.size(); }
  const Channel& channel(std::size_t c) const { return channels_[c]; }
  void set_channel_fault(std::size_t c, const ChannelFault* fault) {
    if (c < channels_.size()) channels_[c].set_fault(fault);
  }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  DramConfig config_;
  std::vector<Channel> channels_;
  std::vector<MemResponse> responses_;
  std::uint64_t cycle_ = 0;
  std::vector<TraceEntry> trace_;
};

}  // namespace topick::mem::reference
