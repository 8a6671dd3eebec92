#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "accel/kv_layout.h"
#include "accel/scoreboard.h"
#include "core/exact_attention.h"
#include "core/quantized_kv_cache.h"
#include "workload/generator.h"

namespace topick::accel {
namespace {

AccelConfig make_config(DesignPoint design, double threshold = 1e-3) {
  AccelConfig config;
  config.design = design;
  config.estimator.threshold = threshold;
  config.dram.enable_refresh = false;  // determinism in unit tests
  return config;
}

// Builds a quantized accelerator instance from a synthetic workload.
AccelInstance make_instance(Rng& rng, std::size_t len, int head_dim = 64) {
  wl::WorkloadParams params;
  params.context_len = len;
  params.head_dim = head_dim;
  wl::Generator gen(params);
  const auto inst = gen.make_instance(rng);

  AccelInstance out;
  fx::QuantParams base;
  out.kv = quantize_kv(inst.view(), base);
  fx::QuantParams qp = base;
  qp.scale = fx::choose_scale(inst.q, base.total_bits);
  out.q = fx::quantize(inst.q, qp);
  out.score_scale = static_cast<double>(qp.scale) *
                    out.kv.keys[0].params.scale /
                    std::sqrt(static_cast<double>(head_dim));
  out.base_addr = 0;
  return out;
}

TEST(KvLayoutTest, FirstChunkPlaneIsContiguous) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 128, 64);
  EXPECT_EQ(layout.granules_per_chunk(), 1);
  EXPECT_EQ(layout.granules_per_value(), 3);
  // Consecutive tokens' chunk-0 granules interleave channels (streaming
  // friendly): the first 8 tokens land in 8 different channels.
  mem::Hbm hbm(config.dram);
  std::set<int> channels;
  for (std::size_t t = 0; t < 8; ++t) {
    channels.insert(hbm.channel_of(layout.key_chunk_addr(t, 0, 0)));
  }
  EXPECT_EQ(channels.size(), 8u);
}

TEST(KvLayoutTest, PlanesOccupyDisjointBankGroups) {
  // The mapping's whole point: chunk-0, chunk-1, chunk-2 and V streams must
  // never collide in a bank, so interleaved on-demand traffic cannot thrash
  // row buffers across planes.
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 256, 64);
  mem::Hbm hbm(config.dram);
  std::array<std::set<std::uint64_t>, 4> banks_used;
  for (std::size_t t = 0; t < 256; ++t) {
    for (int b = 0; b < 3; ++b) {
      banks_used[static_cast<std::size_t>(b)].insert(
          hbm.local_of(layout.key_chunk_addr(t, b, 0)).bank);
    }
    for (int g = 0; g < layout.granules_per_value(); ++g) {
      banks_used[3].insert(hbm.local_of(layout.value_addr(t, g)).bank);
    }
  }
  // The K planes interleave in time and must be pairwise bank-disjoint.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      for (auto bank : banks_used[static_cast<std::size_t>(a)]) {
        EXPECT_FALSE(banks_used[static_cast<std::size_t>(b)].count(bank))
            << "K plane " << a << " and K plane " << b << " share bank "
            << bank;
      }
    }
  }
  // V streams alone in step 1 and deliberately uses every bank.
  EXPECT_EQ(banks_used[3].size(), 16u);
  EXPECT_EQ(layout.region_bytes(), 256u * (3u + 3u) * 32u);
}

TEST(KvLayoutTest, WideHeadUsesMultipleGranules) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 16, 128);
  EXPECT_EQ(layout.granules_per_chunk(), 2);   // 128 dims x 4 bit = 64 B
  EXPECT_EQ(layout.granules_per_value(), 6);   // 128 dims x 12 bit = 192 B
}

TEST(KvLayoutTest, RejectsUnalignedBase) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  EXPECT_THROW(KvLayout(config, 17, 16, 64), std::logic_error);
}

TEST(KvLayoutTest, HostResidentLayoutChargesInt16Width) {
  // host_resident_layout widens the granule math from packed chunk bits to
  // the int16 elements the host cache actually stores: a 64-dim chunk plane
  // row goes 32 B -> 128 B, a value row 96 B -> 128 B.
  AccelConfig config = make_config(DesignPoint::topick_ooo);
  config.host_resident_layout = true;
  KvLayout layout(config, 0, 128, 64);
  EXPECT_EQ(layout.granules_per_chunk(), 4);
  EXPECT_EQ(layout.granules_per_value(), 4);

  // Same bank-group discipline as the packed layout: the contiguity charged
  // is the host's contiguous plane walk, so K planes stay bank-disjoint.
  mem::Hbm hbm(config.dram);
  std::array<std::set<std::uint64_t>, 3> banks_used;
  for (std::size_t t = 0; t < 128; ++t) {
    for (int b = 0; b < 3; ++b) {
      for (int g = 0; g < layout.granules_per_chunk(); ++g) {
        banks_used[static_cast<std::size_t>(b)].insert(
            hbm.local_of(layout.key_chunk_addr(t, b, g)).bank);
      }
    }
  }
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      for (auto bank : banks_used[static_cast<std::size_t>(a)]) {
        EXPECT_FALSE(banks_used[static_cast<std::size_t>(b)].count(bank));
      }
    }
  }
}

TEST(KvLayoutTest, HostResidentRegionMatchesCacheResidency) {
  // Cross-layer pin: the host-layout region footprint must equal what one
  // head of QuantizedKvCache reports as resident for its planes + value
  // arena (head_dim 64 rows are granule-aligned, so no rounding slack).
  AccelConfig config = make_config(DesignPoint::topick_ooo);
  config.host_resident_layout = true;
  const std::size_t len = 96;
  const int head_dim = 64;

  QuantizedKvCache cache(static_cast<std::size_t>(head_dim));
  Rng rng(0x1d);
  std::vector<float> k(static_cast<std::size_t>(head_dim));
  std::vector<float> v(static_cast<std::size_t>(head_dim));
  for (std::size_t t = 0; t < len; ++t) {
    for (auto& x : k) x = static_cast<float>(rng.normal());
    for (auto& x : v) x = static_cast<float>(rng.normal());
    cache.append(k, v);
  }
  const auto res = cache.residency();
  EXPECT_EQ(res.f32_mirror, 0u);

  const KvLayout layout(config, 0, len, head_dim);
  // int16_arena covers flat keys + values in equal halves; the device never
  // refetches the flat key copy, so the region is planes + the value half.
  EXPECT_EQ(layout.region_bytes(), res.planes + res.int16_arena / 2);
}

TEST(ScoreboardTest, InsertTakeRoundTrip) {
  Scoreboard sb(4);
  sb.insert(ScoreboardEntry{7, 1, 1234, -0.5});
  EXPECT_TRUE(sb.contains(7));
  auto entry = sb.take(7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->partial_score, 1234);
  EXPECT_FALSE(sb.contains(7));
}

TEST(ScoreboardTest, CapacityAndPeak) {
  Scoreboard sb(2);
  sb.insert(ScoreboardEntry{1, 1, 0, 0.0});
  sb.insert(ScoreboardEntry{2, 1, 0, 0.0});
  EXPECT_TRUE(sb.full());
  EXPECT_THROW(sb.insert(ScoreboardEntry{3, 1, 0, 0.0}), std::logic_error);
  sb.take(1);
  EXPECT_FALSE(sb.full());
  EXPECT_EQ(sb.peak_occupancy(), 2u);
}

TEST(ScoreboardTest, DuplicateInsertThrows) {
  Scoreboard sb(4);
  sb.insert(ScoreboardEntry{5, 1, 0, 0.0});
  EXPECT_THROW(sb.insert(ScoreboardEntry{5, 2, 0, 0.0}), std::logic_error);
}

TEST(ScoreboardTest, TakeMissingReturnsEmpty) {
  Scoreboard sb(4);
  EXPECT_FALSE(sb.take(9).has_value());
}

TEST(EngineTest, BaselineKeepsEverythingAndMatchesExact) {
  Rng rng(21);
  const auto inst = make_instance(rng, 128);
  Engine engine(make_config(DesignPoint::baseline));
  const auto result = engine.run(inst);

  EXPECT_EQ(result.survivors, 128u);
  EXPECT_EQ(result.access.k_bits_fetched, result.access.k_bits_baseline);
  EXPECT_EQ(result.access.v_bits_fetched, result.access.v_bits_baseline);
  EXPECT_GT(result.core_cycles, 0u);

  // Output must match the functional quantized exact reference.
  TokenPickerConfig ref_config;
  ref_config.estimator.threshold = 0.0;
  TokenPickerAttention ref(ref_config);
  const auto expected = ref.attend_quantized(inst.q, inst.kv, inst.score_scale);
  for (std::size_t d = 0; d < result.output.size(); ++d) {
    EXPECT_NEAR(result.output[d], expected.output[d], 1e-4f);
  }
}

TEST(EngineTest, TopickPrunesSoundly) {
  Rng rng(22);
  const auto inst = make_instance(rng, 256);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst);

  EXPECT_LT(result.survivors, 256u);
  EXPECT_GT(result.survivors, 0u);

  // Oracle check: every pruned token's true probability is below thr.
  std::vector<double> scores(256);
  for (std::size_t t = 0; t < 256; ++t) {
    scores[t] = static_cast<double>(fx::dot_i64(inst.q, inst.kv.keys[t])) *
                inst.score_scale;
  }
  const double log_denom = log_sum_exp(scores.data(), scores.size());
  for (std::size_t t = 0; t < 256; ++t) {
    if (!result.kept[t]) {
      EXPECT_LT(std::exp(scores[t] - log_denom), 1e-3)
          << "token " << t << " pruned unsoundly";
    }
  }
}

TEST(EngineTest, TopickReducesAccessAndCycles) {
  // Generation-scale context (1024): at very short contexts the on-demand
  // round trips are not amortized and streaming can win (the paper
  // evaluates at 1024-2048).
  Rng rng(23);
  const auto inst = make_instance(rng, 1024);

  Engine base(make_config(DesignPoint::baseline));
  Engine kv(make_config(DesignPoint::topick_kv, 1e-3));
  Engine ooo(make_config(DesignPoint::topick_ooo, 1e-3));

  const auto rb = base.run(inst);
  const auto rkv = kv.run(inst);
  const auto rooo = ooo.run(inst);

  // topick_kv streams all of K; only V shrinks.
  EXPECT_EQ(rkv.access.k_bits_fetched, rb.access.k_bits_fetched);
  EXPECT_LT(rkv.access.v_bits_fetched, rb.access.v_bits_fetched);
  // topick_ooo also cuts K.
  EXPECT_LT(rooo.access.k_bits_fetched, rkv.access.k_bits_fetched);
  // Cycle ordering: baseline slowest, full ToPick fastest.
  EXPECT_LT(rkv.core_cycles, rb.core_cycles);
  EXPECT_LT(rooo.core_cycles, rkv.core_cycles);
}

TEST(EngineTest, ZeroThresholdOooMatchesBaselineSurvivors) {
  Rng rng(24);
  const auto inst = make_instance(rng, 96);
  Engine engine(make_config(DesignPoint::topick_ooo, 0.0));
  const auto result = engine.run(inst);
  EXPECT_EQ(result.survivors, 96u);
  EXPECT_EQ(result.access.k_bits_fetched, result.access.k_bits_baseline);
}

TEST(EngineTest, ScoreboardPeakWithinCapacity) {
  Rng rng(25);
  const auto inst = make_instance(rng, 512);
  auto config = make_config(DesignPoint::topick_ooo, 1e-3);
  Engine engine(config);
  const auto result = engine.run(inst);
  EXPECT_LE(result.scoreboard_peak,
            static_cast<std::size_t>(config.scoreboard_entries));
}

TEST(EngineTest, TinyScoreboardStillCompletes) {
  Rng rng(26);
  const auto inst = make_instance(rng, 256);
  auto config = make_config(DesignPoint::topick_ooo, 1e-3);
  config.scoreboard_entries = 2;  // heavy stall pressure
  Engine engine(config);
  const auto result = engine.run(inst);
  EXPECT_EQ(result.kept.size(), 256u);
  EXPECT_GT(result.survivors, 0u);
  // All tokens resolved: histogram covers everyone.
  std::uint64_t total = 0;
  for (auto c : result.access.chunk_histogram) total += c;
  EXPECT_EQ(total, 256u);
}

TEST(EngineTest, OutputCloseToFunctionalTokenPicker) {
  Rng rng(27);
  const auto inst = make_instance(rng, 192);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto hw = engine.run(inst);

  TokenPickerConfig ref_config;
  ref_config.estimator.threshold = 0.0;  // exact reference
  TokenPickerAttention ref(ref_config);
  const auto exact = ref.attend_quantized(inst.q, inst.kv, inst.score_scale);

  // Pruned-softmax output stays within the dropped-mass bound of exact.
  float vmax = 0.0f;
  for (const auto& v : inst.kv.values) {
    for (auto x : v.values) {
      vmax = std::max(vmax, std::abs(static_cast<float>(x) * v.params.scale));
    }
  }
  const double bound = 2.0 * 1e-3 * 192 * vmax + 1e-3;
  for (std::size_t d = 0; d < hw.output.size(); ++d) {
    EXPECT_NEAR(hw.output[d], exact.output[d], bound);
  }
}

TEST(EngineTest, TimelineRecordsScheduleEvents) {
  Rng rng(28);
  const auto inst = make_instance(rng, 64);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst, /*record_timeline=*/true);
  EXPECT_FALSE(result.timeline.empty());
  bool has_request = false, has_arrive = false, has_decision = false;
  for (const auto& e : result.timeline) {
    has_request |= (e.kind == EventKind::request);
    has_arrive |= (e.kind == EventKind::arrive);
    has_decision |= (e.kind == EventKind::prune || e.kind == EventKind::keep);
  }
  EXPECT_TRUE(has_request);
  EXPECT_TRUE(has_arrive);
  EXPECT_TRUE(has_decision);
}

TEST(EngineTest, StepCyclesSumToTotal) {
  Rng rng(29);
  const auto inst = make_instance(rng, 128);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst);
  EXPECT_EQ(result.step0_cycles + result.step1_cycles, result.core_cycles);
}

TEST(EngineTest, RunManyMergesBatchStatistics) {
  Rng rng(32);
  std::vector<AccelInstance> instances;
  for (int i = 0; i < 3; ++i) instances.push_back(make_instance(rng, 96));
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto batch = engine.run_many(instances);
  EXPECT_EQ(batch.instances, 3u);
  EXPECT_EQ(batch.access.tokens_total, 3u * 96u);
  EXPECT_GT(batch.core_cycles, 0u);

  // Merged totals equal the sum of individual runs.
  Engine single(make_config(DesignPoint::topick_ooo, 1e-3));
  std::uint64_t cycles = 0;
  for (const auto& inst : instances) cycles += single.run(inst).core_cycles;
  EXPECT_EQ(batch.core_cycles, cycles);
}

TEST(EnergyModelTest, Table2TotalsMatchPaper) {
  AreaPowerModel model;
  EXPECT_NEAR(model.total_area_mm2(), 8.593, 0.1);
  EXPECT_NEAR(model.total_power_mw(), 1492.78, 25.0);
  EXPECT_NEAR(model.lane_area_mm2() * 16, 2.518, 0.1);
  EXPECT_NEAR(model.lane_power_mw() * 16, 426.76, 16.0);
}

TEST(EnergyModelTest, OverheadsMatchPaperAnalysis) {
  AreaPowerModel model;
  EXPECT_NEAR(model.area_overhead_v(), 0.010, 0.003);   // +1.0% area
  EXPECT_NEAR(model.power_overhead_v(), 0.013, 0.003);  // +1.3% power
  EXPECT_NEAR(model.area_overhead_k(), 0.049, 0.005);   // +4.9% area
  EXPECT_NEAR(model.power_overhead_k(), 0.056, 0.005);  // +5.6% power
}

TEST(EnergyModelTest, BreakdownComponentsPositiveAndDramDominant) {
  Rng rng(30);
  const auto inst = make_instance(rng, 512);
  Engine engine(make_config(DesignPoint::baseline));
  const auto result = engine.run(inst);
  const auto energy = energy_of(result);
  EXPECT_GT(energy.dram_pj, 0.0);
  EXPECT_GT(energy.buffer_pj, 0.0);
  EXPECT_GT(energy.compute_pj, 0.0);
  // Generation phase is memory-bound: DRAM dominates the baseline energy.
  EXPECT_GT(energy.dram_pj, 0.5 * energy.total_pj());
}

TEST(EnergyModelTest, TopickUsesLessEnergyThanBaseline) {
  Rng rng(31);
  const auto inst = make_instance(rng, 512);
  Engine base(make_config(DesignPoint::baseline));
  Engine ooo(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto eb = energy_of(base.run(inst));
  const auto eo = energy_of(ooo.run(inst));
  EXPECT_LT(eo.total_pj(), eb.total_pj());
}

// ---------- golden values across design points ----------------------------
//
// Every simulated output of Engine::run, recorded from the engine as it
// stood before its request path went division-free and its chunk dots went
// through the dispatched kernel. Host-side rewrites of the engine, the
// KV layout, the HBM address decode or the fixed-point dots must reproduce
// these bit for bit. Cycle counts are kept as numbers; the vectors and stat
// blocks as FNV-1a digests of their exact bits.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct EngineDigest {
  std::uint64_t core_cycles;
  std::uint64_t step0_cycles;
  std::uint64_t step1_cycles;
  std::uint64_t kept;
  std::uint64_t access;
  std::uint64_t dram;
  std::uint64_t dram_energy_bits;
  std::uint64_t lanes;
  std::uint64_t output;
  std::uint64_t timeline;
  std::uint64_t dram_trace;
};

EngineDigest digest_of(const SimResult& r) {
  EngineDigest d{};
  d.core_cycles = r.core_cycles;
  d.step0_cycles = r.step0_cycles;
  d.step1_cycles = r.step1_cycles;

  d.kept = fnv1a(kFnvBasis, r.kept.size());
  for (const bool k : r.kept) d.kept = fnv1a(d.kept, k ? 1 : 0);

  const AccessStats& a = r.access;
  d.access = kFnvBasis;
  for (const std::uint64_t v :
       {a.k_bits_fetched, a.v_bits_fetched, a.k_bits_baseline,
        a.v_bits_baseline, a.tokens_total, a.tokens_kept}) {
    d.access = fnv1a(d.access, v);
  }
  for (const std::uint64_t v : a.chunk_histogram) d.access = fnv1a(d.access, v);

  const mem::DramStats& s = r.dram;
  d.dram = kFnvBasis;
  // The 0 fills the slot of a since-removed DramStats counter (always 0
  // here) so the recorded digests below stay valid.
  for (const std::uint64_t v :
       {s.requests, s.row_hits, s.row_misses, s.activates, s.refreshes,
        s.bytes_read, s.data_bus_busy_cycles, std::uint64_t{0},
        s.fault_stall_cycles}) {
    d.dram = fnv1a(d.dram, v);
  }
  d.dram_energy_bits = std::bit_cast<std::uint64_t>(r.dram_energy_pj);

  d.lanes = kFnvBasis;
  for (const std::uint64_t v :
       {r.lane_busy_cycles, r.lane_stall_cycles,
        static_cast<std::uint64_t>(r.scoreboard_peak),
        static_cast<std::uint64_t>(r.survivors)}) {
    d.lanes = fnv1a(d.lanes, v);
  }

  d.output = fnv1a(kFnvBasis, r.output.size());
  for (const float x : r.output) {
    d.output = fnv1a(d.output, std::bit_cast<std::uint32_t>(x));
  }

  d.timeline = fnv1a(kFnvBasis, r.timeline.size());
  for (const TimelineEvent& e : r.timeline) {
    d.timeline = fnv1a(d.timeline, e.cycle);
    d.timeline = fnv1a(d.timeline, static_cast<std::uint64_t>(e.lane));
    d.timeline = fnv1a(d.timeline, static_cast<std::uint64_t>(e.kind));
    d.timeline = fnv1a(d.timeline, e.token);
    d.timeline = fnv1a(d.timeline, static_cast<std::uint64_t>(e.chunk));
  }

  d.dram_trace = fnv1a(kFnvBasis, r.dram_trace.size());
  for (const mem::TraceEntry& e : r.dram_trace) {
    d.dram_trace = fnv1a(d.dram_trace, e.cycle);
    d.dram_trace = fnv1a(d.dram_trace, e.addr);
    d.dram_trace = fnv1a(d.dram_trace, static_cast<std::uint64_t>(e.channel));
    d.dram_trace = fnv1a(d.dram_trace, e.row_hit ? 1 : 0);
  }
  return d;
}

struct GoldenCase {
  DesignPoint design;
  int head_dim;
  int pe_lanes;            // 12: a lane count that is not a power of two
  int scoreboard_entries;  // 2: constant scoreboard back-pressure
  EngineDigest expected;
};

// 200 tokens per instance, thr 1e-3, refresh off, one instance per head_dim
// shared by every design point.
const GoldenCase kGoldenCases[] = {
    {DesignPoint::baseline, 64, 16, 32,
     {108, 54, 54, 0xf5e576b78d9a740dull, 0x8f95e6194f379fcdull,
      0x7e5f45f9444e8b8full, 0x4133b00000000000ull, 0xd6c1f2f449fc29e1ull,
      0x575709af559e8607ull, 0xb357fa79952b89d6ull, 0xcc797a5011ca3131ull}},
    {DesignPoint::baseline, 64, 12, 32,
     {132, 66, 66, 0xf5e576b78d9a740dull, 0x8f95e6194f379fcdull,
      0x7e5f45f9444e8b8full, 0x4133b00000000000ull, 0xd6c1f2f449fc29e1ull,
      0x575709af559e8607ull, 0x3c614fb799203fd1ull, 0xe177eb4221f3cc2dull}},
    {DesignPoint::baseline, 80, 16, 32,
     {163, 94, 69, 0xf5e576b78d9a740dull, 0xbd8f2fceec153a4dull,
      0x5288a2cd458245c6ull, 0x413f400000000000ull, 0xc0a3ebb616940050ull,
      0x5cb445adf6f524cdull, 0xd6913e9bef77ef56ull, 0x108bdbdd5b85027cull}},
    {DesignPoint::baseline, 80, 12, 32,
     {204, 118, 86, 0xf5e576b78d9a740dull, 0xbd8f2fceec153a4dull,
      0x5288a2cd458245c6ull, 0x413f400000000000ull, 0xc0a3ebb616940050ull,
      0x5cb445adf6f524cdull, 0x6dc659135f789ed6ull, 0xd51cabb51739cf60ull}},
    {DesignPoint::baseline, 128, 16, 32,
     {189, 94, 95, 0xf5e576b78d9a740dull, 0x0fae42016f5b0e2dull,
      0xd666ecd28a83788cull, 0x4142840000000000ull, 0x9aeea541269823baull,
      0x2b1d0b9bf8b85f23ull, 0xad8ec3420ccc319full, 0x6197fba6ee4bd89eull}},
    {DesignPoint::baseline, 128, 12, 32,
     {235, 118, 117, 0xf5e576b78d9a740dull, 0x0fae42016f5b0e2dull,
      0xd666ecd28a83788cull, 0x4142840000000000ull, 0x9aeea541269823baull,
      0x2b1d0b9bf8b85f23ull, 0xa23bc419577942b7ull, 0xea955b316a337266ull}},
    {DesignPoint::topick_kv, 64, 16, 32,
     {71, 53, 18, 0x80874de450b4084dull, 0xf075ae6b8f6731f1ull,
      0x29bca32f436d68f7ull, 0x412631eccccccccdull, 0x7a48ca3927d22894ull,
      0x89114541b82ed0f0ull, 0x57c55123c4cc979dull, 0xd39f948b5756648cull}},
    {DesignPoint::topick_kv, 64, 12, 32,
     {80, 62, 18, 0x80874de450b4084dull, 0xf075ae6b8f6731f1ull,
      0x29bca32f436d68f7ull, 0x412631eccccccccdull, 0x7a48ca3927d22894ull,
      0x89114541b82ed0f0ull, 0x7b0806927072bbc6ull, 0xecb80bb1c68cd31bull}},
    {DesignPoint::topick_kv, 80, 16, 32,
     {113, 91, 22, 0x4e142ada41065b4dull, 0x4098e2c506225134ull,
      0x171150174faac70cull, 0x4134314000000000ull, 0x7dc51d86c2820aceull,
      0x34aa4fc5df9be2f9ull, 0xc2b31f84756d93c9ull, 0x419c18cdeca2aef9ull}},
    {DesignPoint::topick_kv, 80, 12, 32,
     {131, 109, 22, 0x4e142ada41065b4dull, 0xfd097650a595a252ull,
      0x171150174faac70cull, 0x4134314000000000ull, 0x9d30754b646ea92cull,
      0x34aa4fc5df9be2f9ull, 0x1eb4b80e9c3a76f5ull, 0x7ac50d221066c7e9ull}},
    {DesignPoint::topick_kv, 128, 16, 32,
     {111, 91, 20, 0x2249b746d5e094acull, 0xb9226ee9ab0bb128ull,
      0x17acb41a28da731dull, 0x41347eb333333333ull, 0x619cae26e5f1a978ull,
      0xcaac6d7165b3ae5dull, 0x6e633c0cc78b03d1ull, 0xcb77d94827de80c8ull}},
    {DesignPoint::topick_kv, 128, 12, 32,
     {135, 109, 26, 0xa8b8a921186b4a4dull, 0xff91eed6f2cf333bull,
      0x9f3d5eab40e498fcull, 0x413494e666666667ull, 0xb3c66a5550e736e3ull,
      0x32eee835b9439243ull, 0xab1dbda0edd3d694ull, 0x0dbf0f555511ce75ull}},
    {DesignPoint::topick_stalled, 64, 16, 32,
     {340, 312, 28, 0x12b56c54d80812cdull, 0x90c34e947cce2bd6ull,
      0x2b192d2e7968e6ebull, 0x41268d3333333333ull, 0x5992428a6da15630ull,
      0xdfa4a54744ec1459ull, 0x3414c472c2d12e6bull, 0x8fd7253a04a8e93dull}},
    {DesignPoint::topick_stalled, 64, 16, 2,
     {340, 312, 28, 0x12b56c54d80812cdull, 0x90c34e947cce2bd6ull,
      0x2b192d2e7968e6ebull, 0x41268d3333333333ull, 0x5992428a6da15630ull,
      0xdfa4a54744ec1459ull, 0x3414c472c2d12e6bull, 0x8fd7253a04a8e93dull}},
    {DesignPoint::topick_stalled, 64, 12, 32,
     {448, 413, 35, 0xf3ab2df73e27134dull, 0xbcbe5dbe192bef4dull,
      0xe6edc033a81ad009ull, 0x4127f7cccccccccdull, 0xa46025718a34810bull,
      0x32a205a91d0b18f8ull, 0x76e3c8277a8c383bull, 0x3d551d1243da28eeull}},
    {DesignPoint::topick_stalled, 64, 12, 2,
     {448, 413, 35, 0xf3ab2df73e27134dull, 0xbcbe5dbe192bef4dull,
      0xe6edc033a81ad009ull, 0x4127f7cccccccccdull, 0xa46025718a34810bull,
      0x32a205a91d0b18f8ull, 0x76e3c8277a8c383bull, 0x3d551d1243da28eeull}},
    {DesignPoint::topick_stalled, 80, 16, 32,
     {561, 536, 25, 0x4e142ada41065b4dull, 0xe21880335115b0e3ull,
      0x432b5aa44f6cb77aull, 0x412d7f2666666667ull, 0x457e8fc8a92f2a53ull,
      0x34aa4fc5df9be2f9ull, 0x41faac167592a241ull, 0xdefe5a0eb1403cb7ull}},
    {DesignPoint::topick_stalled, 80, 16, 2,
     {561, 536, 25, 0x4e142ada41065b4dull, 0xe21880335115b0e3ull,
      0x432b5aa44f6cb77aull, 0x412d7f2666666667ull, 0x457e8fc8a92f2a53ull,
      0x34aa4fc5df9be2f9ull, 0x41faac167592a241ull, 0xdefe5a0eb1403cb7ull}},
    {DesignPoint::topick_stalled, 80, 12, 32,
     {714, 692, 22, 0x4e142ada41065b4dull, 0xe21880335115b0e3ull,
      0x432b5aa44f6cb77aull, 0x412d7f2666666667ull, 0x457e8fc8a92f2a53ull,
      0x34aa4fc5df9be2f9ull, 0x172606a09aeb242eull, 0xfd3cae74f6289d69ull}},
    {DesignPoint::topick_stalled, 80, 12, 2,
     {714, 692, 22, 0x4e142ada41065b4dull, 0xe21880335115b0e3ull,
      0x432b5aa44f6cb77aull, 0x412d7f2666666667ull, 0x457e8fc8a92f2a53ull,
      0x34aa4fc5df9be2f9ull, 0x172606a09aeb242eull, 0xfd3cae74f6289d69ull}},
    {DesignPoint::topick_stalled, 128, 16, 32,
     {660, 614, 46, 0xbb75e1afbfb0446dull, 0xbb981df59a3937e3ull,
      0x1905fefb7323d743ull, 0x413564999999999aull, 0x2dea0503f7138049ull,
      0x6adb4300fc9b04b8ull, 0x427a96585c57dc56ull, 0xd2f7b775eb09f38aull}},
    {DesignPoint::topick_stalled, 128, 16, 2,
     {660, 614, 46, 0xbb75e1afbfb0446dull, 0xbb981df59a3937e3ull,
      0x1905fefb7323d743ull, 0x413564999999999aull, 0x2dea0503f7138049ull,
      0x6adb4300fc9b04b8ull, 0x427a96585c57dc56ull, 0xd2f7b775eb09f38aull}},
    {DesignPoint::topick_stalled, 128, 12, 32,
     {830, 774, 56, 0x393f87b6f239984dull, 0x5e96b14f19fb930bull,
      0xccd9c841c6ccb554ull, 0x4135e9cccccccccdull, 0x20d4d2084186dc89ull,
      0xc2265773660b8a3aull, 0x0242802aad90ff6aull, 0xd1685640aafc12c1ull}},
    {DesignPoint::topick_stalled, 128, 12, 2,
     {830, 774, 56, 0x393f87b6f239984dull, 0x5e96b14f19fb930bull,
      0xccd9c841c6ccb554ull, 0x4135e9cccccccccdull, 0x20d4d2084186dc89ull,
      0xc2265773660b8a3aull, 0x0242802aad90ff6aull, 0xd1685640aafc12c1ull}},
    {DesignPoint::topick_ooo, 64, 16, 32,
     {93, 68, 25, 0x4716e36d011ee1cdull, 0x05a5715a0e7f27ffull,
      0xc05b62a8743b2bafull, 0x4125e30000000000ull, 0xfccf10dfb63d0729ull,
      0x6c3879c609a75d33ull, 0x7d14fe2dcf97d5bdull, 0xe092650a3dd0b1a2ull}},
    {DesignPoint::topick_ooo, 64, 16, 2,
     {163, 138, 25, 0x4716e36d011ee1cdull, 0x0e3c6985b6978836ull,
      0xc7d7c79208f87059ull, 0x41252a0000000000ull, 0xfd326a986ba0ac99ull,
      0x6c3879c609a75d33ull, 0x29c6c126b039e5adull, 0x72b4b39bf6eeaf5cull}},
    {DesignPoint::topick_ooo, 64, 12, 32,
     {99, 72, 27, 0x4d9437306dc1014dull, 0x8d2c1c72c0ae2697ull,
      0x2abe50f4620fca52ull, 0x412450eccccccccdull, 0x71ea1690fcef979cull,
      0x9f7fb25c975e5b39ull, 0xe92bfdd7f4bb8a0dull, 0x0fca0926d0ef1061ull}},
    {DesignPoint::topick_ooo, 64, 12, 2,
     {197, 164, 33, 0xf8a8b6adab720acdull, 0x90c34e947cce2bd6ull,
      0x2b192d2e7968e6ebull, 0x41268d3333333333ull, 0x5be9478b182270e1ull,
      0xf89ef744e233e9c3ull, 0xd632888fd946219aull, 0xd6496b2794d1a14cull}},
    {DesignPoint::topick_ooo, 80, 16, 32,
     {127, 102, 25, 0x4e142ada41065b4dull, 0x46421b66d680153bull,
      0x6ac6c4d060d30264ull, 0x412d8df333333334ull, 0xce04e2d5743a7884ull,
      0x34aa4fc5df9be2f9ull, 0x8674f82b621941a9ull, 0xa897091409034986ull}},
    {DesignPoint::topick_ooo, 80, 16, 2,
     {167, 142, 25, 0x4e142ada41065b4dull, 0x46421b66d680153bull,
      0x6ac6c4d060d30264ull, 0x412d8df333333334ull, 0x6427365c002db1f2ull,
      0x34aa4fc5df9be2f9ull, 0x4df42922e1738e0full, 0xbe39e3feb6279360ull}},
    {DesignPoint::topick_ooo, 80, 12, 32,
     {140, 115, 25, 0xbeb3e1996708ebccull, 0x6e8626cdf5543656ull,
      0xd46efd4611b863ebull, 0x412d9cc000000000ull, 0xcd945219dd3d2447ull,
      0x5d26408d06fd3e69ull, 0xb9e147b8a6a3667bull, 0xca6f452cb3824a65ull}},
    {DesignPoint::topick_ooo, 80, 12, 2,
     {190, 168, 22, 0x4e142ada41065b4dull, 0xe21880335115b0e3ull,
      0x432b5aa44f6cb77aull, 0x412d7f2666666667ull, 0xe3214000c9d71643ull,
      0x34aa4fc5df9be2f9ull, 0xa0f796c363259700ull, 0x9dd52dd3b6c6d313ull}},
    {DesignPoint::topick_ooo, 128, 16, 32,
     {139, 100, 39, 0xf5b1c5d851e3cbacull, 0x18ef407dc5339561ull,
      0x82dfb6dba160d136ull, 0x4133a13333333333ull, 0xb0590fafe0ea0778ull,
      0x7b47e6fcadd03608ull, 0xc6b44cb73f2096abull, 0xbd3aa19db8dd3ed6ull}},
    {DesignPoint::topick_ooo, 128, 16, 2,
     {201, 156, 45, 0x1a1e9d701f3688cdull, 0x0c82e642f3cc4679ull,
      0x9e6361b45cb6a7dfull, 0x4134690000000000ull, 0x1f19077e8e3bc949ull,
      0xc717ab73c02c5cd0ull, 0x88ab1d22ea70b3e6ull, 0x9d501cabc046fe8eull}},
    {DesignPoint::topick_ooo, 128, 12, 32,
     {160, 115, 45, 0x194cd2cde74e9b0cull, 0x74dd0f4448b320d4ull,
      0x42253c4e0f7d987eull, 0x4134c1cccccccccdull, 0x66c8f2e7c5dba16aull,
      0x97c738e42d3e62b9ull, 0x3b297839144ef1c2ull, 0xb493172fdd4080d8ull}},
    {DesignPoint::topick_ooo, 128, 12, 2,
     {244, 192, 52, 0xc4b369685113270cull, 0x751449614eb60466ull,
      0x707553c31ee88983ull, 0x4135986666666667ull, 0x14df18b2a41dfe8eull,
      0xecb7a7bebc7e757eull, 0xe1de41910ab66145ull, 0x74d5c36ab481b0bfull}},
};

constexpr std::size_t kGoldenTokens = 200;

AccelConfig golden_config(const GoldenCase& c) {
  AccelConfig config = make_config(c.design, 1e-3);
  config.pe_lanes = c.pe_lanes;
  config.scoreboard_entries = c.scoreboard_entries;
  config.trace_dram = true;
  return config;
}

AccelInstance golden_instance(int head_dim) {
  Rng rng(0x601d + static_cast<std::uint64_t>(head_dim));
  return make_instance(rng, kGoldenTokens, head_dim);
}

TEST(EngineTest, GoldenAcrossDesignPoints) {
  std::uint64_t stalled_lane_cycles = 0;
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(testing::Message()
                 << "design " << static_cast<int>(c.design) << " head_dim "
                 << c.head_dim << " lanes " << c.pe_lanes << " scoreboard "
                 << c.scoreboard_entries);
    Engine engine(golden_config(c));
    const SimResult r =
        engine.run(golden_instance(c.head_dim), /*record_timeline=*/true);
    const EngineDigest got = digest_of(r);
    const EngineDigest& want = c.expected;
    EXPECT_EQ(got.core_cycles, want.core_cycles);
    EXPECT_EQ(got.step0_cycles, want.step0_cycles);
    EXPECT_EQ(got.step1_cycles, want.step1_cycles);
    EXPECT_EQ(got.kept, want.kept);
    EXPECT_EQ(got.access, want.access);
    EXPECT_EQ(got.dram, want.dram);
    EXPECT_EQ(got.dram_energy_bits, want.dram_energy_bits);
    EXPECT_EQ(got.lanes, want.lanes);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.timeline, want.timeline);
    EXPECT_EQ(got.dram_trace, want.dram_trace);
    if (c.scoreboard_entries == 2) stalled_lane_cycles += r.lane_stall_cycles;
  }
  // The tiny scoreboard must drive lanes into the stalled scan: a pending
  // insert, then a search of the ready FIFO for a downstream chunk.
  EXPECT_GT(stalled_lane_cycles, 0u);
}

}  // namespace
}  // namespace topick::accel
