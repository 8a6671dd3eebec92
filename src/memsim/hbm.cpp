#include "memsim/hbm.h"

#include <algorithm>

#include "common/require.h"

namespace topick::mem {

Hbm::Hbm(const DramConfig& config) : config_(config) {
  require(config.channels > 0 && config.banks_per_channel > 0,
          "DramConfig: channels/banks must be positive");
  require(config.row_bytes % config.transaction_bytes == 0,
          "DramConfig: row_bytes must be a multiple of the granule");
  granule_shift_ = log2_pow2(config.transaction_bytes);
  channel_shift_ = log2_pow2(config.channels);
  bank_shift_ = log2_pow2(config.banks_per_channel);
  column_shift_ = log2_pow2(config.columns_per_row());
  require(granule_shift_ >= 0 && channel_shift_ >= 0 && bank_shift_ >= 0 &&
              column_shift_ >= 0,
          "DramConfig: channels, banks_per_channel, transaction_bytes and "
          "columns_per_row() must be powers of two");
  // Per-channel FIFO retirement relies on every burst lasting >= 1 cycle;
  // an empty queue could never accept a request.
  require(config.timing.t_burst >= 1 && config.queue_depth >= 1,
          "DramConfig: t_burst and queue_depth must be >= 1");
  channels_.reserve(static_cast<std::size_t>(config.channels));
  for (int c = 0; c < config.channels; ++c) channels_.emplace_back(config_);
}

int Hbm::channel_of(std::uint64_t addr) const {
  const std::uint64_t granule = addr >> granule_shift_;
  return static_cast<int>(granule & ((std::uint64_t{1} << channel_shift_) - 1));
}

LocalAddr Hbm::local_of(std::uint64_t addr) const {
  std::uint64_t g = addr >> (granule_shift_ + channel_shift_);
  LocalAddr local;
  local.bank = g & ((std::uint64_t{1} << bank_shift_) - 1);
  g >>= bank_shift_;
  local.column = g & ((std::uint64_t{1} << column_shift_) - 1);
  local.row = g >> column_shift_;
  return local;
}

bool Hbm::can_accept(std::uint64_t addr) const {
  return channels_[static_cast<std::size_t>(channel_of(addr))].can_accept();
}

bool Hbm::try_enqueue(const MemRequest& request) {
  auto& channel = channels_[static_cast<std::size_t>(channel_of(request.addr))];
  if (!channel.can_accept()) return false;
  channel.enqueue(request, local_of(request.addr));
  return true;
}

void Hbm::tick() {
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (channels_[c].quiet(cycle_)) continue;
    const std::size_t before = trace_.size();
    channels_[c].tick(cycle_, responses_, trace_enabled_ ? &trace_ : nullptr);
    for (std::size_t i = before; i < trace_.size(); ++i) {
      trace_[i].channel = static_cast<int>(c);
    }
  }
  ++cycle_;
}

void Hbm::advance_to_next_event(std::uint64_t limit) {
  std::uint64_t target = limit;
  for (const Channel& channel : channels_) {
    target = std::min(target, channel.next_event(cycle_));
  }
  if (target <= cycle_) return;
  for (Channel& channel : channels_) channel.skip_to(cycle_, target);
  cycle_ = target;
}

std::string Hbm::trace_csv() const {
  std::string out = "cycle,channel,addr,row_hit\n";
  for (const auto& entry : trace_) {
    out += std::to_string(entry.cycle) + "," + std::to_string(entry.channel) +
           "," + std::to_string(entry.addr) + "," +
           (entry.row_hit ? "1" : "0") + "\n";
  }
  return out;
}

void Hbm::drain_responses(std::vector<MemResponse>& out) {
  out.clear();
  out.swap(responses_);
}

std::size_t Hbm::pending() const {
  std::size_t total = 0;
  for (const auto& channel : channels_) total += channel.pending();
  return total;
}

DramStats Hbm::stats() const {
  DramStats total;
  for (const auto& channel : channels_) {
    const auto& s = channel.stats();
    total.requests += s.requests;
    total.row_hits += s.row_hits;
    total.row_misses += s.row_misses;
    total.activates += s.activates;
    total.refreshes += s.refreshes;
    total.bytes_read += s.bytes_read;
    total.data_bus_busy_cycles += s.data_bus_busy_cycles;
    total.fault_stall_cycles += s.fault_stall_cycles;
  }
  return total;
}

double Hbm::energy_pj() const {
  const DramStats s = stats();
  return static_cast<double>(s.activates) * config_.energy.activate_pj +
         static_cast<double>(s.bytes_read) * 8.0 *
             config_.energy.read_pj_per_bit +
         static_cast<double>(s.refreshes) * config_.energy.refresh_pj;
}

}  // namespace topick::mem
