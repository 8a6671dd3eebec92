// One HBM2 channel: request queue, FR-FCFS scheduling over banks, a shared
// data bus, and periodic refresh.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/bank.h"
#include "memsim/dram_config.h"
#include "memsim/ring.h"
#include "memsim/types.h"

namespace topick::mem {

// Bank/row/column coordinates of a transaction within a channel.
struct LocalAddr {
  std::uint64_t bank = 0;
  std::uint64_t row = 0;
  std::uint64_t column = 0;
};

class Channel {
 public:
  explicit Channel(const DramConfig& config);

  bool can_accept() const { return queue_.size() < queue_limit_; }
  void enqueue(const MemRequest& request, const LocalAddr& local);

  // Advances one DRAM clock; completed transactions are appended to `done`.
  // When `trace` is non-null, committed commands are appended to it.
  // In-flight bursts retire in FIFO order: each burst starts no earlier than
  // the previous one ends and lasts >= 1 cycle, so done cycles strictly
  // increase and at most one burst retires per cycle.
  void tick(std::uint64_t now, std::vector<MemResponse>& done,
            std::vector<TraceEntry>* trace = nullptr);

  // True when tick(now) would change nothing (no burst due, no refresh due,
  // no request able to issue): Hbm::tick skips the channel for one compare.
  // A queue blocked by a fault stall window is never quiet, because tick()
  // counts each stalled cycle.
  bool quiet(std::uint64_t now) const { return now < wake_; }

  // Event-driven clock. next_event(now) is the first cycle >= now on which
  // tick() does more than count a fault stall: the front in-flight burst
  // completes, a refresh is due, or a queued request can issue (its refresh
  // window and fault stall window over). UINT64_MAX when there is none.
  std::uint64_t next_event(std::uint64_t now) const;
  // Accounts the skipped cycles [now, target), target <= next_event(now):
  // fault_stall_cycles accrue in bulk, everything else was idle. Ticking at
  // `target` afterwards is cycle-exact with ticking every skipped cycle.
  void skip_to(std::uint64_t now, std::uint64_t target);

  std::size_t pending() const { return queue_.size() + in_flight_.size(); }
  const DramStats& stats() const { return stats_; }

  // Fault injection (src/fault/): a non-null fault degrades this channel —
  // stretched bursts and/or periodic issue-stall windows, handled inside
  // tick() and accounted in bulk by skip_to(). The pointee must outlive the
  // channel's use; nullptr (the default) restores bit-identical healthy
  // behavior.
  void set_fault(const ChannelFault* fault) {
    fault_ = fault;
    wake_ = 0;
  }
  const ChannelFault* fault() const { return fault_; }

 private:
  struct QueuedRequest {
    MemRequest request;
    LocalAddr local;
  };
  struct InFlight {
    MemRequest request;
    std::uint64_t done_cycle = 0;
  };

  void maybe_refresh(std::uint64_t now);
  // FR-FCFS: the oldest ready row hit, else the oldest request (queue
  // non-empty).
  std::size_t pick_request(std::uint64_t now) const;
  void issue(std::uint64_t now, std::vector<TraceEntry>* trace);

  const DramConfig* config_;
  std::size_t queue_limit_;
  std::vector<Bank> banks_;
  Ring<QueuedRequest> queue_;  // capacity >= queue_limit_, never grows
  Ring<InFlight> in_flight_;   // done_cycle strictly increasing
  std::uint64_t data_bus_free_ = 0;   // next cycle the data bus is free
  std::uint64_t next_refresh_ = 0;
  std::uint64_t refresh_until_ = 0;
  std::uint64_t wake_ = 0;  // quiet() before this cycle
  const ChannelFault* fault_ = nullptr;
  DramStats stats_;
};

}  // namespace topick::mem
