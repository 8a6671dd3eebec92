// Layer replays shared by the workloads: the core layer (TokenPickerAttention
// + QuantizedKvCache) and the fixedpoint kernels timed on a workload's own
// rows, and the accel layer run over a workload's own attention instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/engine.h"
#include "core/token_picker.h"
#include "perfbench.h"

namespace perfbench {

// One head's float K/V rows and the queries issued over them. Rows
// [0, prompt_len) are appended in bulk (append_rows); every later row is
// appended alone (append). Row pos >= first_query_pos is followed by one
// attend with query row (pos - first_query_pos) over the live cache.
struct HeadReplay {
  const float* keys = nullptr;     // (n_tokens, head_dim)
  const float* values = nullptr;   // (n_tokens, head_dim)
  const float* queries = nullptr;  // (n_tokens - first_query_pos, head_dim)
  std::size_t n_tokens = 0;
  std::size_t prompt_len = 0;
  std::size_t first_query_pos = 0;
  std::size_t head_dim = 0;
};

struct CoreLayerStats {
  std::uint64_t attend_calls = 0;
  double attend_ns = 0.0;
  std::uint64_t attend_ctx_tokens = 0;  // summed live context per attend
  std::uint64_t append_tokens = 0;
  double append_ns = 0.0;               // append + append_rows
  std::uint64_t evict_calls = 0;
  double evict_ns = 0.0;
  std::uint64_t rescales = 0;           // key + value whole-head rescales
  std::uint64_t rescale_calls = 0;      // calls during which one fired
  double rescale_ns = 0.0;              // time of those calls
};

// Replays each head through a fresh QuantizedKvCache (rescales re-read the
// replay's own float rows, as the serve pool does) and TokenPickerAttention.
// Tokens pruned for `persistence_window` consecutive queries are evicted,
// mirroring the serve engine's reclaim. Every call is a span in `spans`.
CoreLayerStats replay_core(const std::vector<HeadReplay>& heads,
                           const topick::TokenPickerConfig& picker,
                           int persistence_window, const Spans& spans);

// ns per element of the five dispatched fixedpoint kernels, each timed
// through fx::active_kernels() over `n_rows` float rows of the workload.
struct KernelTimes {
  double row_dot_i64 = 0.0;
  double weighted_value_accum = 0.0;
  double quantize_row_i16 = 0.0;
  double row_amax = 0.0;
  double rescale_row_i16 = 0.0;
};
KernelTimes time_kernels(const float* rows, std::size_t n_rows,
                         std::size_t head_dim);

// Report the core and fixedpoint per-layer metrics. `stats` are the
// program's own AccessStats for the workload (chunk fetches, kept tokens).
void add_core_metrics(const CoreLayerStats& core,
                      const topick::AccessStats& stats,
                      double pruned_mass_max, Report* report);
void add_kernel_metrics(const KernelTimes& kernels,
                        const topick::AccessStats& stats, Report* report);

// A float attention instance (one query over one head's context) and its
// accelerator encoding, built the way bench_fig10 builds them.
struct AttentionInstance {
  std::vector<float> q;
  std::vector<float> keys;
  std::vector<float> values;
  std::size_t len = 0;
  std::size_t head_dim = 0;
  topick::accel::AccelInstance hw;
};
topick::accel::AccelInstance encode_for_accel(const float* q, const float* keys,
                                              const float* values,
                                              std::size_t len,
                                              std::size_t head_dim);

// The baseline and topick_ooo design points over a set of instances.
struct AccelSummary {
  std::size_t instances = 0;
  double host_run_s = 0.0;  // both designs, all instances
  std::uint64_t baseline_cycles = 0;
  std::uint64_t ooo_cycles = 0;
  double baseline_energy_pj = 0.0;
  double ooo_energy_pj = 0.0;
  double ooo_dram_energy_pj = 0.0;
  topick::AccessStats ooo_access;
  std::uint64_t ooo_step0_cycles = 0;
  std::uint64_t ooo_lane_busy_cycles = 0;
  std::uint64_t ooo_lane_stall_cycles = 0;
  std::size_t scoreboard_peak = 0;
  std::uint64_t ooo_dram_requests = 0;
  std::uint64_t ooo_dram_row_hits = 0;
  std::uint64_t ooo_dram_bytes = 0;
  std::uint64_t ooo_dram_bus_busy = 0;      // summed over channels
  std::uint64_t dram_cycles_total = 0;      // both designs
  std::uint64_t dram_requests_total = 0;    // both designs
  std::vector<double> ooo_latency_dram_cycles;  // per instance
  // Per instance: squared L2 error of the topick_ooo output against float
  // exact attention over the context, and the reference's squared norm.
  std::vector<double> err_sq;
  std::vector<double> ref_sq;
  double pruned_mass_max = 0.0;      // exact softmax mass not kept
  // Instances where topick_ooo pruned a token whose probability under the
  // quantized scores reached the threshold (the estimator's guarantee).
  std::vector<std::size_t> unsound;
  int lanes = 0;
  int dram_channels = 0;
  int dram_clocks_per_core = 0;
  double core_clock_ghz = 0.0;
  std::uint64_t fingerprint = 0;     // hash of every cycle count and output
};
topick::accel::AccelConfig accel_config(topick::accel::DesignPoint design,
                                        double threshold);
AccelSummary run_accel_designs(const std::vector<AttentionInstance>& instances,
                               double threshold, const Spans& spans);

// accel_speedup, accel_energy_eff, kv_fetch_reduction and pruning_ratio,
// printed beside the paper's figures.
void add_accel_ratio_metrics(const AccelSummary& accel, Report* report);
void add_accel_layer_metrics(const AccelSummary& accel, double instance_gen_ms,
                             Report* report);

}  // namespace perfbench
