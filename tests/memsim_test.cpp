#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "memsim/hbm.h"
#include "memsim_reference.h"

namespace topick::mem {
namespace {

DramConfig no_refresh_config() {
  DramConfig config;
  config.enable_refresh = false;
  return config;
}

// The responses completed since the last drain.
std::vector<MemResponse> drain(Hbm& hbm) {
  std::vector<MemResponse> out;
  hbm.drain_responses(out);
  return out;
}

// Runs until all pending transactions are retired; returns the responses.
std::vector<MemResponse> run_to_completion(Hbm& hbm,
                                           std::uint64_t max_cycles = 200000) {
  std::vector<MemResponse> all;
  std::uint64_t start = hbm.cycle();
  while (!hbm.idle()) {
    hbm.tick();
    for (auto& r : drain(hbm)) all.push_back(r);
    EXPECT_LT(hbm.cycle() - start, max_cycles) << "DRAM model did not drain";
    if (hbm.cycle() - start >= max_cycles) break;
  }
  return all;
}

TEST(AddressMap, SequentialGranulesInterleaveChannels) {
  Hbm hbm(no_refresh_config());
  for (int g = 0; g < 16; ++g) {
    EXPECT_EQ(hbm.channel_of(static_cast<std::uint64_t>(g) * 32), g % 8);
  }
}

TEST(AddressMap, LocalDecodeCoversBanksRowsColumns) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  // Granule stride of `channels` stays in one channel and walks banks.
  const auto local0 = hbm.local_of(0);
  const auto local1 = hbm.local_of(32ull * 8);
  EXPECT_EQ(local0.bank, 0u);
  EXPECT_EQ(local1.bank, 1u);
  // Walking past all banks increments the column.
  const auto local_col = hbm.local_of(32ull * 8 * 16);
  EXPECT_EQ(local_col.bank, 0u);
  EXPECT_EQ(local_col.column, 1u);
  // Walking past a full row increments the row.
  const auto local_row =
      hbm.local_of(32ull * 8 * 16 * static_cast<std::uint64_t>(config.columns_per_row()));
  EXPECT_EQ(local_row.row, 1u);
  EXPECT_EQ(local_row.column, 0u);
}

TEST(Hbm, SingleReadLatencyIsActPlusCas) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  ASSERT_TRUE(hbm.try_enqueue(MemRequest{0, 1}));
  std::vector<MemResponse> responses;
  while (responses.empty()) {
    hbm.tick();
    for (auto& r : drain(hbm)) responses.push_back(r);
    ASSERT_LT(hbm.cycle(), 1000u);
  }
  const auto expected = static_cast<std::uint64_t>(
      config.timing.t_rcd + config.timing.t_cl + config.timing.t_burst);
  EXPECT_NEAR(static_cast<double>(responses[0].ready_cycle),
              static_cast<double>(expected), 2.0);
}

TEST(Hbm, EveryRequestGetsExactlyOneResponse) {
  Hbm hbm(no_refresh_config());
  std::set<std::uint64_t> pending_ids;
  std::uint64_t id = 0;
  for (int i = 0; i < 200; ++i) {
    const MemRequest req{static_cast<std::uint64_t>(i) * 32, id};
    if (hbm.try_enqueue(req)) {
      pending_ids.insert(id);
      ++id;
    }
    hbm.tick();
    for (auto& r : drain(hbm)) {
      ASSERT_TRUE(pending_ids.count(r.id)) << "duplicate or unknown response";
      pending_ids.erase(r.id);
    }
  }
  run_to_completion(hbm);
  Hbm hbm2(no_refresh_config());  // silence unused warnings path
  (void)hbm2;
}

TEST(Hbm, RowHitsBeatRowMisses) {
  // Same-row streak vs row-thrashing pattern on one channel/bank.
  const DramConfig config = no_refresh_config();
  const std::uint64_t bank_stride = 32ull * 8;          // next bank
  const std::uint64_t row_stride =
      bank_stride * 16 * static_cast<std::uint64_t>(config.columns_per_row());

  Hbm streak(config);
  for (int i = 0; i < 16; ++i) {
    // Same bank, same row, increasing column.
    ASSERT_TRUE(streak.try_enqueue(
        MemRequest{bank_stride * 16 * static_cast<std::uint64_t>(i),
                   static_cast<std::uint64_t>(i)}));
  }
  std::vector<MemResponse> r1;
  while (!streak.idle()) {
    streak.tick();
    for (auto& r : drain(streak)) r1.push_back(r);
  }
  const auto streak_cycles = streak.cycle();

  Hbm thrash(config);
  for (int i = 0; i < 16; ++i) {
    // Same bank, alternating rows.
    ASSERT_TRUE(thrash.try_enqueue(
        MemRequest{row_stride * static_cast<std::uint64_t>(i % 2) +
                       bank_stride * 16 * static_cast<std::uint64_t>(i / 2),
                   static_cast<std::uint64_t>(i)}));
  }
  while (!thrash.idle()) thrash.tick();
  const auto thrash_cycles = thrash.cycle();

  EXPECT_LT(streak_cycles, thrash_cycles);
  EXPECT_GT(streak.stats().row_hits, thrash.stats().row_hits);
}

TEST(Hbm, StreamingApproachesPeakBandwidth) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  const int n = 2048;
  int issued = 0;
  std::uint64_t next_addr = 0;
  while (issued < n || !hbm.idle()) {
    while (issued < n &&
           hbm.try_enqueue(MemRequest{next_addr, static_cast<std::uint64_t>(issued)})) {
      next_addr += 32;
      ++issued;
    }
    hbm.tick();
    drain(hbm);
    ASSERT_LT(hbm.cycle(), 100000u);
  }
  // 2048 granules over 8 channels at 1 granule/cycle/channel: >= 256 cycles.
  const double ideal = static_cast<double>(n) / config.channels;
  EXPECT_GE(static_cast<double>(hbm.cycle()), ideal);
  EXPECT_LE(static_cast<double>(hbm.cycle()), ideal * 1.5 + 100.0);
}

TEST(Hbm, QueueBackpressure) {
  const DramConfig config = no_refresh_config();
  Hbm hbm(config);
  // Flood one channel (same address -> same channel).
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (hbm.try_enqueue(MemRequest{0, static_cast<std::uint64_t>(i)})) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, config.queue_depth);
  EXPECT_FALSE(hbm.can_accept(0));
  run_to_completion(hbm);
}

TEST(Hbm, StatsAccounting) {
  Hbm hbm(no_refresh_config());
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(hbm.try_enqueue(
        MemRequest{static_cast<std::uint64_t>(i) * 32, static_cast<std::uint64_t>(i)}));
    hbm.tick();
    drain(hbm);
  }
  run_to_completion(hbm);
  const auto stats = hbm.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.bytes_read, static_cast<std::uint64_t>(n) * 32);
  EXPECT_EQ(stats.row_hits + stats.row_misses, static_cast<std::uint64_t>(n));
}

TEST(Hbm, StreamingEnergyNearHbm2Class) {
  Hbm hbm(no_refresh_config());
  const int n = 4096;
  int issued = 0;
  std::uint64_t addr = 0;
  while (issued < n || !hbm.idle()) {
    while (issued < n &&
           hbm.try_enqueue(MemRequest{addr, static_cast<std::uint64_t>(issued)})) {
      addr += 32;
      ++issued;
    }
    hbm.tick();
    drain(hbm);
  }
  const double pj_per_bit =
      hbm.energy_pj() / (static_cast<double>(n) * 32.0 * 8.0);
  EXPECT_GT(pj_per_bit, 3.0);
  EXPECT_LT(pj_per_bit, 5.0);
}

TEST(Hbm, RefreshAddsLatencyButDrains) {
  DramConfig with_refresh;
  with_refresh.enable_refresh = true;
  Hbm hbm(with_refresh);
  // Run past a refresh interval with sparse traffic.
  std::uint64_t issued = 0;
  for (std::uint64_t c = 0; c < 9000; ++c) {
    if (c % 100 == 0 &&
        hbm.try_enqueue(MemRequest{(c % 64) * 32, issued})) {
      ++issued;
    }
    hbm.tick();
    drain(hbm);
  }
  while (!hbm.idle()) hbm.tick();
  EXPECT_GT(hbm.stats().refreshes, 0u);
  EXPECT_EQ(hbm.stats().requests, issued);
}

TEST(Hbm, RejectsMisalignedRowConfig) {
  DramConfig config;
  config.row_bytes = 1000;  // not a multiple of 32
  EXPECT_THROW(Hbm{config}, std::logic_error);
}

// The address map decodes with shifts and masks.
TEST(Hbm, RejectsNonPowerOfTwoGeometry) {
  DramConfig six_channels;
  six_channels.channels = 6;
  EXPECT_THROW(Hbm{six_channels}, std::logic_error);
  DramConfig twelve_banks;
  twelve_banks.banks_per_channel = 12;
  EXPECT_THROW(Hbm{twelve_banks}, std::logic_error);
  DramConfig three_columns;
  three_columns.row_bytes = 96;  // 3 columns of 32 B
  EXPECT_THROW(Hbm{three_columns}, std::logic_error);
  DramConfig small;
  small.channels = 2;
  small.banks_per_channel = 4;
  small.row_bytes = 512;
  EXPECT_NO_THROW(Hbm{small});
}

// FIFO retirement needs every burst to last >= 1 cycle, and a channel needs
// room for at least one request.
TEST(Hbm, RejectsConfigThatBreaksFifoRetirement) {
  DramConfig zero_burst;
  zero_burst.timing.t_burst = 0;
  EXPECT_THROW(Hbm{zero_burst}, std::logic_error);
  DramConfig zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_THROW(Hbm{zero_queue}, std::logic_error);
}

TEST(Hbm, TraceRecordsEveryCommittedTransaction) {
  Hbm hbm(no_refresh_config());
  hbm.enable_trace(true);
  const int n = 48;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(hbm.try_enqueue(MemRequest{static_cast<std::uint64_t>(i) * 32,
                                           static_cast<std::uint64_t>(i)}));
    hbm.tick();
    drain(hbm);
  }
  run_to_completion(hbm);
  EXPECT_EQ(hbm.trace().size(), static_cast<std::size_t>(n));
  // Channels recorded and cycle stamps are monotone per channel.
  std::uint64_t last_cycle[8] = {};
  for (const auto& entry : hbm.trace()) {
    ASSERT_GE(entry.channel, 0);
    ASSERT_LT(entry.channel, 8);
    ASSERT_GE(entry.cycle, last_cycle[entry.channel]);
    last_cycle[entry.channel] = entry.cycle;
  }
  const auto csv = hbm.trace_csv();
  EXPECT_NE(csv.find("cycle,channel,addr,row_hit"), std::string::npos);
}

TEST(Hbm, TraceDisabledByDefault) {
  Hbm hbm(no_refresh_config());
  ASSERT_TRUE(hbm.try_enqueue(MemRequest{0, 0}));
  run_to_completion(hbm);
  EXPECT_TRUE(hbm.trace().empty());
}

// ---- Equivalence with the per-cycle reference model -------------------------
//
// tests/memsim_reference.h keeps the plain per-cycle clock. The event-driven
// model must match it cycle for cycle: responses (id, ready cycle) in drain
// order, per-channel stats and occupancy, trace entries, cycle(), pending().

struct EquivCase {
  const char* name;
  bool refresh;
  int queue_depth;
  bool faults;
  // 2 channels x 4 banks x 512 B rows instead of 4 x 16 x 1 KiB: the shift
  // decode checked against the reference's divisions away from the default.
  bool small_geometry = false;
};

const EquivCase kEquivCases[] = {
    {"refresh_off", false, 16, false},
    {"refresh_on", true, 16, false},
    {"refresh_on_faults", true, 16, true},
    {"refresh_off_faults", false, 16, true},
    {"queue_depth_1_refresh_on_faults", true, 1, true},
    {"queue_depth_1_refresh_off", false, 1, false},
    {"small_geometry_refresh_on_faults", true, 16, true, true},
    {"small_geometry_refresh_off", false, 16, false, true},
};

DramConfig equiv_config(const EquivCase& c) {
  DramConfig config;
  config.channels = 4;
  if (c.small_geometry) {
    config.channels = 2;
    config.banks_per_channel = 4;
    config.row_bytes = 512;
  }
  config.enable_refresh = c.refresh;
  config.queue_depth = c.queue_depth;
  config.timing.t_refi = 700;  // many refreshes in a short run
  config.timing.t_rfc = 90;
  return config;
}

// Channel 1 runs a stretched bus inside stall windows, channel 2 only stall
// windows, channel 3 only a stretched bus.
std::vector<ChannelFault> equiv_faults() {
  std::vector<ChannelFault> faults(4);
  faults[1].burst_multiplier = 2.5;
  faults[1].stall_period = 257;
  faults[1].stall_cycles = 60;
  faults[2].stall_period = 100;
  faults[2].stall_cycles = 37;
  faults[3].burst_multiplier = 3.0;
  return faults;
}

// A transaction plus the absolute DRAM cycle it arrives at the controller.
struct TimedRequest {
  MemRequest request;
  std::uint64_t arrival = 0;
};

// Alternating busy bursts and quiet gaps; sequential streams mixed with
// random addresses so rows both hit and conflict.
std::vector<TimedRequest> random_plan(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedRequest> plan;
  std::uint64_t cycle = rng.uniform_index(50);
  std::uint64_t stream = rng.uniform_index(1 << 16) * 32;
  std::uint64_t id = 0;
  for (int phase = 0; phase < 8; ++phase) {
    const std::uint64_t busy_end = cycle + 50 + rng.uniform_index(350);
    for (; cycle < busy_end; ++cycle) {
      if (!rng.bernoulli(0.6)) continue;
      const std::uint64_t n = 1 + rng.uniform_index(6);
      for (std::uint64_t k = 0; k < n; ++k) {
        MemRequest request;
        if (rng.bernoulli(0.6)) {
          request.addr = stream;
          stream += 32;
        } else {
          request.addr = rng.uniform_index(1 << 17) * 32;
        }
        request.id = id++;
        plan.push_back(TimedRequest{request, cycle});
      }
    }
    cycle += 100 + rng.uniform_index(1500);  // quiet gap
  }
  return plan;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> as_pairs(
    const std::vector<MemResponse>& responses) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& r : responses) out.emplace_back(r.id, r.ready_cycle);
  return out;
}

void expect_stats_identical(const DramStats& a, const DramStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.data_bus_busy_cycles, b.data_bus_busy_cycles);
  EXPECT_EQ(a.fault_stall_cycles, b.fault_stall_cycles);
}

void expect_traces_identical(const std::vector<TraceEntry>& a,
                             const std::vector<TraceEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].row_hit, b[i].row_hit);
  }
}

// Drives the serial clock of both models with the same plan (a request that
// finds its queue full retries the next cycle). With `jump`, the model under
// test skips to the next event or arrival before every tick while the
// reference ticks through the gap, which must stay silent.
void run_serial_equivalence(const EquivCase& c, std::uint64_t seed,
                            bool jump) {
  const DramConfig config = equiv_config(c);
  const std::vector<ChannelFault> faults = equiv_faults();
  Hbm hbm(config);
  reference::Hbm ref(config);
  hbm.enable_trace(true);
  if (c.faults) {
    for (std::size_t ch = 0; ch < faults.size(); ++ch) {
      hbm.set_channel_fault(ch, &faults[ch]);
      ref.set_channel_fault(ch, &faults[ch]);
    }
  }
  const std::vector<TimedRequest> plan = random_plan(seed);
  std::vector<MemResponse> got;
  std::size_t next = 0;
  while (next < plan.size() || hbm.pending() > 0) {
    if (jump) {
      hbm.advance_to_next_event(next < plan.size() ? plan[next].arrival
                                                   : UINT64_MAX);
    }
    while (ref.cycle() < hbm.cycle()) {
      ref.tick();
      ASSERT_TRUE(ref.drain_responses().empty())
          << "jumped over a completion at cycle " << ref.cycle() - 1;
    }
    ASSERT_EQ(hbm.cycle(), ref.cycle());
    while (next < plan.size() && plan[next].arrival <= hbm.cycle()) {
      const bool accepted = hbm.try_enqueue(plan[next].request);
      ASSERT_EQ(accepted, ref.try_enqueue(plan[next].request));
      if (!accepted) break;
      ++next;
    }
    hbm.tick();
    ref.tick();
    hbm.drain_responses(got);
    ASSERT_EQ(as_pairs(got), as_pairs(ref.drain_responses()))
        << "at cycle " << ref.cycle() - 1;
    ASSERT_EQ(hbm.pending(), ref.pending());
    for (std::size_t ch = 0; ch < hbm.channel_count(); ++ch) {
      ASSERT_EQ(hbm.channel(ch).pending(), ref.channel(ch).pending());
    }
  }
  EXPECT_EQ(ref.pending(), 0u);
  EXPECT_EQ(hbm.cycle(), ref.cycle());
  for (std::size_t ch = 0; ch < hbm.channel_count(); ++ch) {
    SCOPED_TRACE(ch);
    expect_stats_identical(hbm.channel(ch).stats(), ref.channel(ch).stats());
  }
  expect_traces_identical(hbm.trace(), ref.trace());
  if (c.refresh) {
    EXPECT_GT(hbm.stats().refreshes, 0u);
  }
  if (c.faults) {
    EXPECT_GT(hbm.stats().fault_stall_cycles, 0u);
  }
}

// The shift decode against the reference's divisions, every field — the
// column too, which no timing rule reads.
TEST(ReferenceModel, AddressDecodeMatchesDivision) {
  for (const EquivCase& c : kEquivCases) {
    SCOPED_TRACE(c.name);
    const DramConfig config = equiv_config(c);
    const Hbm hbm(config);
    const reference::Hbm ref(config);
    Rng rng(7);
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t addr = rng.uniform_index(std::uint64_t{1} << 40);
      ASSERT_EQ(hbm.channel_of(addr), ref.channel_of(addr)) << addr;
      const LocalAddr got = hbm.local_of(addr);
      const LocalAddr want = ref.local_of(addr);
      ASSERT_EQ(got.bank, want.bank) << addr;
      ASSERT_EQ(got.column, want.column) << addr;
      ASSERT_EQ(got.row, want.row) << addr;
    }
  }
}

TEST(ReferenceModel, SerialTickMatchesCycleByCycle) {
  for (const EquivCase& c : kEquivCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
      run_serial_equivalence(c, seed, /*jump=*/false);
    }
  }
}

TEST(ReferenceModel, ClockJumpMatchesCycleByCycle) {
  for (const EquivCase& c : kEquivCases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
      run_serial_equivalence(c, seed, /*jump=*/true);
    }
  }
}

}  // namespace
}  // namespace topick::mem
