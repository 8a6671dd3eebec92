// accel_ooo: the workload-zoo attention instances through accel::Engine at
// the baseline and topick_ooo design points — the paper's own accelerator
// figures. Set-up is instance generation; a round runs every instance
// through both designs (per-cycle, on-demand out-of-order chunk requests
// into memsim).
#include <cmath>

#include "common/rng.h"
#include "layers.h"
#include "perfbench.h"
#include "workload/zoo.h"

namespace perfbench {

using namespace topick;

namespace {

constexpr std::size_t kInstancesPerModel = 8;
constexpr double kThreshold = 1e-3;  // the paper's ToPick operating point
// The fixedpoint kernels are timed on rows of the zoo's most common head
// dimension.
constexpr std::size_t kKernelHeadDim = 128;
// Per-instance latency limit behind slo_attainment, in DRAM cycles.
constexpr double kSloInstanceCycles = 1800;

// Relative L2 error of all topick_ooo outputs taken together.
double output_rel_err(const AccelSummary& a) {
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a.err_sq.size(); ++i) {
    err += a.err_sq[i];
    ref += a.ref_sq[i];
  }
  return std::sqrt(err / ref);
}

std::vector<AttentionInstance> make_instances(
    const std::vector<wl::ZooEntry>& zoo, std::uint64_t seed) {
  std::vector<AttentionInstance> out;
  for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
    const wl::Generator gen(zoo[mi].workload);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + mi);
    for (std::size_t i = 0; i < kInstancesPerModel; ++i) {
      wl::Instance src = gen.make_instance(rng);
      AttentionInstance inst;
      inst.len = src.len;
      inst.head_dim = src.head_dim;
      inst.hw = encode_for_accel(src.q.data(), src.keys.data(),
                                 src.values.data(), src.len, src.head_dim);
      inst.q = std::move(src.q);
      inst.keys = std::move(src.keys);
      inst.values = std::move(src.values);
      out.push_back(std::move(inst));
    }
  }
  return out;
}

std::string config_json(const std::vector<wl::ZooEntry>& zoo) {
  std::string models = "[";
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    if (i > 0) models += ", ";
    models += JsonObject()
                  .str("model", zoo[i].model.name)
                  .integer("context", static_cast<long long>(
                                          zoo[i].workload.context_len))
                  .integer("head_dim", zoo[i].workload.head_dim)
                  .done();
  }
  models += "]";
  const accel::AccelConfig c =
      accel_config(accel::DesignPoint::topick_ooo, kThreshold);
  return JsonObject()
      .str("workload", "accel_ooo")
      .raw("models", models)
      .integer("instances_per_model",
               static_cast<long long>(kInstancesPerModel))
      .str("designs", "baseline, topick_ooo")
      .num("threshold", c.estimator.threshold)
      .integer("pe_lanes", c.pe_lanes)
      .integer("scoreboard_entries", c.scoreboard_entries)
      .num("core_clock_ghz", c.core_clock_ghz)
      .integer("dram_clocks_per_core", c.dram_clocks_per_core)
      .integer("dram_channels", c.dram.channels)
      .boolean("dram_refresh", c.dram.enable_refresh)
      .num("slo_instance_cycles", kSloInstanceCycles)
      .integer("kernel_rows_head_dim", static_cast<long long>(kKernelHeadDim))
      .done();
}

}  // namespace

void run_accel_workload(const Options& options, Report* report) {
  const std::vector<wl::ZooEntry> zoo = wl::workload_zoo();
  report->config_json = config_json(zoo);

  // Set-up (instance generation) three times for its median, then timed
  // rounds over the same instances (TimedLoop).
  std::vector<double> setup_s;
  std::vector<AttentionInstance> instances;
  for (int i = 0; i < 3; ++i) {
    instances.clear();
    const std::uint64_t t0 = now_ns();
    instances = make_instances(zoo, options.seed);
    setup_s.push_back(seconds_since(t0));
  }
  report->attempted = instances.size();
  const auto n = static_cast<double>(instances.size());

  AccelSummary first;
  TimedLoop loop(options.seconds);
  while (loop.next()) {
    const AccelSummary a = run_accel_designs(instances, kThreshold, Spans{});
    loop.done(n, a.host_run_s);
    if (loop.rounds() == 1) {
      first = a;
    } else if (a.fingerprint != first.fingerprint) {
      report->fail_run("round " + std::to_string(loop.rounds() - 1) +
                       " simulated differently from round 0");
    }
  }
  for (const std::size_t i : first.unsound) {
    report->fail_op(i, "instance " + std::to_string(i) +
                           ": topick_ooo pruned a token at or above the "
                           "threshold");
  }
  const double host_tok_per_s = median(loop.per_s);
  const double rss_mb = peak_rss_mb();
  const std::vector<double>& latency = first.ooo_latency_dram_cycles;

  if (!options.trace) {
    std::size_t met = 0;
    for (const double l : latency) met += l <= kSloInstanceCycles ? 1 : 0;
    report->add("host_tok_per_s", host_tok_per_s, "tok/s", loop.rounds(),
                loop.note());
    report->add("setup_s", median(setup_s), "s", setup_s.size(),
                range_note(setup_s));
    report->add("peak_rss_mb", rss_mb, "MB");
    report->add("sim_tok_per_s",
                n / (static_cast<double>(first.ooo_cycles) /
                     (first.core_clock_ghz * 1e9)),
                "tok/s", instances.size());
    report->add("bytes_per_token",
                static_cast<double>(first.ooo_dram_bytes) / n, "B",
                instances.size());
    // A single-query instance's first token is its only token: TTFT and
    // inter-token latency are both the instance's attention latency.
    report->add("ttft_cycles_p50", quantile(latency, 0.5), "cycles",
                latency.size());
    report->add("ttft_cycles_p90", quantile(latency, 0.9), "cycles",
                latency.size());
    report->add("itl_cycles_p50", quantile(latency, 0.5), "cycles",
                latency.size());
    report->add("itl_cycles_p90", quantile(latency, 0.9), "cycles",
                latency.size());
    report->add("slo_attainment", static_cast<double>(met) / n, "share",
                instances.size());
    report->add("output_rel_err_max", output_rel_err(first), "ratio",
                instances.size());
    add_accel_ratio_metrics(first, report);
    return;
  }

  // Traced run: one more round under the benchmark's spans, then the core
  // layer and the fixedpoint kernels on the same instances.
  obs::TraceRecorder recorder;
  const Spans spans = own_track(&recorder);
  const AccelSummary traced = run_accel_designs(instances, kThreshold, spans);
  std::vector<HeadReplay> heads;
  std::vector<float> kernel_rows;
  for (const AttentionInstance& inst : instances) {
    // Half the context arrives as a prompt, the rest token by token; one
    // query at the end; pruned tokens are evicted after it.
    heads.push_back(HeadReplay{inst.keys.data(), inst.values.data(),
                               inst.q.data(), inst.len, inst.len / 2,
                               inst.len - 1, inst.head_dim});
    if (inst.head_dim == kKernelHeadDim &&
        kernel_rows.size() < 4096 * kKernelHeadDim) {
      kernel_rows.insert(kernel_rows.end(), inst.keys.begin(),
                         inst.keys.begin() + 256 * kKernelHeadDim);
    }
  }
  TokenPickerConfig picker;
  picker.estimator.threshold = kThreshold;
  const CoreLayerStats core = replay_core(heads, picker, 1, spans);
  KernelTimes kernels;
  {
    const auto kernel_span = span(spans, "fixedpoint.kernels");
    kernels = time_kernels(kernel_rows.data(),
                           kernel_rows.size() / kKernelHeadDim, kKernelHeadDim);
  }

  add_idle_serve_layer_metrics(report);
  add_core_metrics(core, first.ooo_access, first.pruned_mass_max, report);
  add_kernel_metrics(kernels, first.ooo_access, report);
  const auto cycles = static_cast<double>(first.dram_cycles_total);
  const auto requests = static_cast<double>(first.dram_requests_total);
  report->add("memsim.cycles", cycles, "cycles");
  report->add("memsim.requests", requests, "count");
  report->add("memsim.host_ns_per_cycle", traced.host_run_s * 1e9 / cycles,
              "ns");
  report->add("memsim.host_ns_per_request",
              traced.host_run_s * 1e9 / requests, "ns");
  report->add("memsim.bus_util",
              static_cast<double>(first.ooo_dram_bus_busy) /
                  (static_cast<double>(first.ooo_cycles) *
                   first.dram_clocks_per_core * first.dram_channels),
              "share");
  add_accel_layer_metrics(traced, median(setup_s) * 1e3, report);
  report->add("trace_overhead_frac",
              1.0 - (n / traced.host_run_s) / median(loop.wall_per_s),
              "share");
  report->span_totals = span_totals(spans);
}

}  // namespace perfbench
