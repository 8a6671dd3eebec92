#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "accel/energy_model.h"
#include "common/expsum.h"
#include "core/exact_attention.h"
#include "core/quantized_kv_cache.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/quant.h"

namespace perfbench {

using namespace topick;

namespace {

// Whole-head rescales re-read the replay's own float rows by token id, as
// the serve engine's paged pool serves them.
class RowSource final : public RescaleSource {
 public:
  RowSource(const float* keys, const float* values, std::size_t head_dim)
      : keys_(keys), values_(values), head_dim_(head_dim) {}
  const float* key_row(std::size_t id) const override {
    return keys_ + id * head_dim_;
  }
  const float* value_row(std::size_t id) const override {
    return values_ + id * head_dim_;
  }

 private:
  const float* keys_;
  const float* values_;
  std::size_t head_dim_;
};

std::uint64_t rescale_count(const QuantizedKvCache& cache) {
  return cache.key_rescales() + cache.value_rescales();
}

// Tokens that fetched each chunk count: one row_dot per fetched K chunk.
std::uint64_t k_chunk_fetches(const AccessStats& stats) {
  std::uint64_t fetches = 0;
  for (std::size_t c = 0; c < stats.chunk_histogram.size(); ++c) {
    fetches += (c + 1) * stats.chunk_histogram[c];
  }
  return fetches;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

volatile double g_sink = 0.0;  // keeps timed kernel results observable

}  // namespace

CoreLayerStats replay_core(const std::vector<HeadReplay>& heads,
                           const TokenPickerConfig& picker,
                           int persistence_window, const Spans& spans) {
  CoreLayerStats st;
  TokenPickerConfig config = picker;
  config.compute_oracle_mass = false;  // as the serve engine runs it
  TokenPickerAttention attention(config);
  TokenPickerResult result;
  std::vector<std::size_t> dead;
  const auto replay_span = span(spans, "core.replay");

  for (const HeadReplay& h : heads) {
    QuantizedKvCache::Config cache_config;
    cache_config.base = config.quant;
    QuantizedKvCache cache(h.head_dim, cache_config);
    const RowSource source(h.keys, h.values, h.head_dim);
    cache.set_rescale_source(&source);
    PrunePersistence persistence(persistence_window);

    // Times one call into the core layer and attributes any whole-head
    // rescale it triggered.
    auto timed = [&](const char* name, auto&& call) {
      const auto call_span = span(spans, name);
      const std::uint64_t rescales_before = rescale_count(cache);
      const std::uint64_t t0 = now_ns();
      call();
      const std::uint64_t t1 = now_ns();
      const auto ns = static_cast<double>(t1 - t0);
      const std::uint64_t fired = rescale_count(cache) - rescales_before;
      if (fired > 0) {
        st.rescales += fired;
        ++st.rescale_calls;
        st.rescale_ns += ns;
      }
      return ns;
    };

    const std::size_t d = h.head_dim;
    if (h.prompt_len > 0) {
      st.append_ns += timed("core.append_rows", [&] {
        cache.append_rows(h.keys, h.values, h.prompt_len, 0);
      });
      st.append_tokens += h.prompt_len;
    }
    for (std::size_t pos = h.prompt_len; pos < h.n_tokens; ++pos) {
      st.append_ns += timed("core.append", [&] {
        cache.append({h.keys + pos * d, d}, {h.values + pos * d, d}, pos);
      });
      ++st.append_tokens;
      if (pos < h.first_query_pos) continue;

      const float* q = h.queries + (pos - h.first_query_pos) * d;
      st.attend_ctx_tokens += cache.len();
      st.attend_ns += timed("core.attend_cached", [&] {
        attention.attend_cached({q, d}, cache, &result);
      });
      ++st.attend_calls;

      for (const TokenDecision& decision : result.decisions) {
        persistence.observe(cache.id_at(decision.token), decision.kept);
      }
      dead.clear();
      for (const std::size_t id : cache.ids()) {
        if (persistence.persistent(id)) {
          dead.push_back(id);
          persistence.forget(id);
        }
      }
      if (!dead.empty()) {
        st.evict_ns += timed("core.evict_ids", [&] { cache.evict_ids(dead); });
        ++st.evict_calls;
      }
    }
  }
  return st;
}

KernelTimes time_kernels(const float* rows, std::size_t n_rows,
                         std::size_t head_dim) {
  const fx::KernelTable& k = fx::active_kernels();
  const std::size_t d = head_dim;
  fx::QuantParams params;
  params.scale = fx::choose_scale({rows, n_rows * d}, params.total_bits);
  std::vector<std::int16_t> q(n_rows * d), out(n_rows * d);
  for (std::size_t r = 0; r < n_rows; ++r) {
    k.quantize_row_i16(rows + r * d, d, params, q.data() + r * d);
  }
  std::vector<float> acc(d, 0.0f);
  const fx::FixedRatio shrink =
      fx::make_fixed_ratio(params.scale, params.scale * 1.25f);
  const double p = 1.0 / static_cast<double>(n_rows);

  // Repeats full passes over the rows for at least 20 ms; ns per element.
  auto time_passes = [&](auto&& pass) {
    std::size_t passes = 0;
    const std::uint64_t t0 = now_ns();
    do {
      pass();
      ++passes;
    } while (now_ns() - t0 < 20'000'000);
    return static_cast<double>(now_ns() - t0) /
           static_cast<double>(passes * n_rows * d);
  };

  KernelTimes t;
  t.row_dot_i64 = time_passes([&] {
    std::int64_t sum = 0;
    for (std::size_t r = 0; r < n_rows; ++r) {
      sum += k.row_dot_i64(q.data() + r * d,
                           q.data() + ((r + 1) % n_rows) * d, d);
    }
    g_sink = g_sink + static_cast<double>(sum);
  });
  t.weighted_value_accum = time_passes([&] {
    for (std::size_t r = 0; r < n_rows; ++r) {
      k.weighted_value_accum(acc.data(), q.data() + r * d, p, params.scale, d);
    }
    g_sink = g_sink + acc[0];
  });
  t.quantize_row_i16 = time_passes([&] {
    for (std::size_t r = 0; r < n_rows; ++r) {
      k.quantize_row_i16(rows + r * d, d, params, out.data() + r * d);
    }
    g_sink = g_sink + out[0];
  });
  t.row_amax = time_passes([&] {
    float m = 0.0f;
    for (std::size_t r = 0; r < n_rows; ++r) {
      m = std::max(m, k.row_amax(rows + r * d, d));
    }
    g_sink = g_sink + m;
  });
  t.rescale_row_i16 = time_passes([&] {
    for (std::size_t r = 0; r < n_rows; ++r) {
      k.rescale_row_i16(q.data() + r * d, d, shrink, params.qmin(),
                        params.qmax(), out.data() + r * d);
    }
    g_sink = g_sink + out[0];
  });
  return t;
}

void add_core_metrics(const CoreLayerStats& core, const AccessStats& stats,
                      double pruned_mass_max, Report* report) {
  const auto calls = static_cast<double>(core.attend_calls);
  report->add("core.attend.calls", calls, "count");
  report->add("core.attend.ns_per_ctx_token",
              ratio(core.attend_ns,
                    static_cast<double>(core.attend_ctx_tokens)),
              "ns", core.attend_calls);
  report->add("core.append.ns_per_token",
              ratio(core.append_ns, static_cast<double>(core.append_tokens)),
              "ns", core.append_tokens);
  report->add("core.evict.us_per_call",
              ratio(core.evict_ns * 1e-3,
                    static_cast<double>(core.evict_calls)),
              "us", core.evict_calls);
  report->add("core.rescales", static_cast<double>(core.rescales), "count");
  report->add("core.rescale.us_per_call",
              ratio(core.rescale_ns * 1e-3,
                    static_cast<double>(core.rescale_calls)),
              "us", core.rescale_calls);
  const auto total = static_cast<double>(stats.tokens_total);
  report->add("core.k_chunks_per_token",
              ratio(static_cast<double>(k_chunk_fetches(stats)), total),
              "chunks", stats.tokens_total);
  report->add("core.kept_frac",
              ratio(static_cast<double>(stats.tokens_kept), total), "share",
              stats.tokens_total);
  report->add("core.pruned_mass_max", pruned_mass_max, "share");
}

void add_kernel_metrics(const KernelTimes& kernels, const AccessStats& stats,
                        Report* report) {
  report->add("fixedpoint.row_dot_i64.ns_per_elem", kernels.row_dot_i64, "ns");
  report->add("fixedpoint.weighted_value_accum.ns_per_elem",
              kernels.weighted_value_accum, "ns");
  report->add("fixedpoint.quantize_row_i16.ns_per_elem",
              kernels.quantize_row_i16, "ns");
  report->add("fixedpoint.row_amax.ns_per_elem", kernels.row_amax, "ns");
  report->add("fixedpoint.rescale_row_i16.ns_per_elem",
              kernels.rescale_row_i16, "ns");
  report->add("fixedpoint.row_dot_calls",
              static_cast<double>(k_chunk_fetches(stats)), "count");
  report->add("fixedpoint.value_accum_calls",
              static_cast<double>(stats.tokens_kept), "count");
}

accel::AccelInstance encode_for_accel(const float* q, const float* keys,
                                      const float* values, std::size_t len,
                                      std::size_t head_dim) {
  accel::AccelInstance hw;
  const fx::QuantParams base;
  hw.kv = quantize_kv(KvHeadView{keys, values, len, head_dim}, base);
  fx::QuantParams qp = base;
  qp.scale = fx::choose_scale({q, head_dim}, base.total_bits);
  hw.q = fx::quantize({q, head_dim}, qp);
  hw.score_scale = static_cast<double>(qp.scale) * hw.kv.keys[0].params.scale /
                   std::sqrt(static_cast<double>(head_dim));
  hw.base_addr = 0;
  return hw;
}

accel::AccelConfig accel_config(accel::DesignPoint design, double threshold) {
  accel::AccelConfig config;
  config.design = design;
  config.estimator.threshold = threshold;
  config.dram.enable_refresh = false;  // as bench_fig10: same DRAM per design
  return config;
}

AccelSummary run_accel_designs(const std::vector<AttentionInstance>& instances,
                               double threshold, const Spans& spans) {
  const accel::AccelConfig base_config =
      accel_config(accel::DesignPoint::baseline, 0.0);
  const accel::AccelConfig ooo_config =
      accel_config(accel::DesignPoint::topick_ooo, threshold);
  accel::Engine baseline(base_config);
  accel::Engine ooo(ooo_config);

  AccelSummary s;
  s.instances = instances.size();
  s.lanes = ooo_config.pe_lanes;
  s.dram_channels = ooo_config.dram.channels;
  s.dram_clocks_per_core = ooo_config.dram_clocks_per_core;
  s.core_clock_ghz = ooo_config.core_clock_ghz;
  std::vector<accel::SimResult> ooo_results;
  ooo_results.reserve(instances.size());

  const std::uint64_t t0 = now_ns();
  {
    const auto run_span = span(spans, "accel.run");
    for (const AttentionInstance& inst : instances) {
      accel::SimResult rb;
      {
        const auto s_base = span(spans, "accel.run.baseline");
        rb = baseline.run(inst.hw);
      }
      {
        const auto s_ooo = span(spans, "accel.run.topick_ooo");
        ooo_results.push_back(ooo.run(inst.hw));
      }
      const accel::SimResult& ro = ooo_results.back();
      s.baseline_cycles += rb.core_cycles;
      s.ooo_cycles += ro.core_cycles;
      s.baseline_energy_pj += accel::energy_of(rb).total_pj();
      const accel::EnergyBreakdown e = accel::energy_of(ro);
      s.ooo_energy_pj += e.total_pj();
      s.ooo_dram_energy_pj += e.dram_pj;
      s.ooo_access.merge(ro.access);
      s.ooo_step0_cycles += ro.step0_cycles;
      s.ooo_lane_busy_cycles += ro.lane_busy_cycles;
      s.ooo_lane_stall_cycles += ro.lane_stall_cycles;
      s.scoreboard_peak = std::max(s.scoreboard_peak, ro.scoreboard_peak);
      s.ooo_dram_requests += ro.dram.requests;
      s.ooo_dram_row_hits += ro.dram.row_hits;
      s.ooo_dram_bytes += ro.dram.bytes_read;
      s.ooo_dram_bus_busy += ro.dram.data_bus_busy_cycles;
      s.dram_requests_total += rb.dram.requests + ro.dram.requests;
      s.dram_cycles_total +=
          (rb.core_cycles + ro.core_cycles) *
          static_cast<std::uint64_t>(s.dram_clocks_per_core);
      s.ooo_latency_dram_cycles.push_back(static_cast<double>(
          ro.core_cycles * static_cast<std::uint64_t>(s.dram_clocks_per_core)));
      const std::uint64_t cycles[2] = {rb.core_cycles, ro.core_cycles};
      s.fingerprint = fnv1a(cycles, sizeof(cycles), s.fingerprint);
      s.fingerprint = fnv1a(ro.output.data(), ro.output.size() * sizeof(float),
                            s.fingerprint);
    }
  }
  s.host_run_s = seconds_since(t0);

  // Untimed output check against float exact attention over the context,
  // and the estimator's guarantee: every token topick_ooo pruned had
  // probability below the threshold under the quantized scores.
  std::vector<double> scores;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const AttentionInstance& inst = instances[i];
    const accel::SimResult& ro = ooo_results[i];
    scores.resize(inst.len);
    for (std::size_t t = 0; t < inst.len; ++t) {
      scores[t] =
          static_cast<double>(fx::dot_i64(inst.hw.q, inst.hw.kv.keys[t])) *
          inst.hw.score_scale;
    }
    const double log_denom = log_sum_exp(scores.data(), scores.size());
    for (std::size_t t = 0; t < inst.len; ++t) {
      if (!ro.kept[t] && std::exp(scores[t] - log_denom) >= threshold) {
        s.unsound.push_back(i);
        break;
      }
    }
    const ExactAttentionResult exact = exact_attention_f32(
        inst.q, KvHeadView{inst.keys.data(), inst.values.data(), inst.len,
                           inst.head_dim});
    double err = 0.0, norm = 0.0;
    for (std::size_t j = 0; j < inst.head_dim; ++j) {
      const double diff = static_cast<double>(ro.output[j]) - exact.output[j];
      err += diff * diff;
      norm += static_cast<double>(exact.output[j]) * exact.output[j];
    }
    s.err_sq.push_back(err);
    s.ref_sq.push_back(norm);
    double kept_mass = 0.0;
    for (std::size_t t = 0; t < inst.len; ++t) {
      if (ro.kept[t]) kept_mass += exact.probs[t];
    }
    s.pruned_mass_max = std::max(s.pruned_mass_max, 1.0 - kept_mass);
  }
  return s;
}

void add_accel_ratio_metrics(const AccelSummary& a, Report* report) {
  char note[96];
  std::snprintf(note, sizeof(note), "paper %.2fx", kPaperSpeedup);
  report->add("accel_speedup",
              ratio(static_cast<double>(a.baseline_cycles),
                    static_cast<double>(a.ooo_cycles)),
              "x", a.instances, note);
  std::snprintf(note, sizeof(note), "paper %.2fx", kPaperEnergyEff);
  report->add("accel_energy_eff", ratio(a.baseline_energy_pj, a.ooo_energy_pj),
              "x", a.instances, note);
  std::snprintf(note, sizeof(note), "paper %.1fx", kPaperKvFetchReduction);
  report->add("kv_fetch_reduction", a.ooo_access.total_reduction(), "x",
              a.instances, note);
  std::snprintf(note, sizeof(note), "paper %.1fx", kPaperPruningRatio);
  report->add("pruning_ratio", a.ooo_access.pruning_ratio(), "x", a.instances,
              note);
}

void add_accel_layer_metrics(const AccelSummary& a, double instance_gen_ms,
                             Report* report) {
  const auto n = static_cast<double>(a.instances);
  report->add("accel.setup.instance_gen_ms", instance_gen_ms, "ms");
  report->add("accel.run_ms_per_instance", ratio(a.host_run_s * 1e3, n), "ms",
              a.instances);
  report->add("accel.host_ns_per_core_cycle",
              ratio(a.host_run_s * 1e9,
                    static_cast<double>(a.baseline_cycles + a.ooo_cycles)),
              "ns", a.instances);
  report->add("accel.core_cycles_per_instance.baseline",
              ratio(static_cast<double>(a.baseline_cycles), n), "cycles",
              a.instances);
  report->add("accel.core_cycles_per_instance.topick_ooo",
              ratio(static_cast<double>(a.ooo_cycles), n), "cycles",
              a.instances);
  const auto ooo_cycles = static_cast<double>(a.ooo_cycles);
  report->add("accel.step0_frac",
              ratio(static_cast<double>(a.ooo_step0_cycles), ooo_cycles),
              "share");
  report->add("accel.lane_utilization",
              ratio(static_cast<double>(a.ooo_lane_busy_cycles),
                    ooo_cycles * a.lanes),
              "share");
  report->add("accel.lane_stall_cycles",
              ratio(static_cast<double>(a.ooo_lane_stall_cycles), n), "cycles",
              a.instances);
  report->add("accel.scoreboard_peak", static_cast<double>(a.scoreboard_peak),
              "entries");
  report->add("accel.dram_row_hit_rate",
              ratio(static_cast<double>(a.ooo_dram_row_hits),
                    static_cast<double>(a.ooo_dram_requests)),
              "share");
  report->add("accel.dram_energy_frac",
              ratio(a.ooo_dram_energy_pj, a.ooo_energy_pj), "share");
}

}  // namespace perfbench
