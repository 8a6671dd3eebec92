// The three serve workloads: serve_poisson, decode_long_ctx, serve_overload.
//
// A run (1) builds the request trace from the seed, (2) sets the engine up
// and replays the trace in timed rounds for --seconds of wall time (the
// sequential executor on one host thread; in a traced run the pipelined
// executor at threads = 3), (3) in a traced run repeats one pipelined round
// with the program's tracer, phase stats and the benchmark's own spans,
// replays the workload's decode streams through the core layer and times
// the fixedpoint kernels on its rows, and (4) checks outputs in an untimed
// pass at threads = 3 and 1.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string_view>

#include "common/rng.h"
#include "core/exact_attention.h"
#include "fault/fault_plan.h"
#include "layers.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"

namespace perfbench {

using namespace topick;

namespace {

constexpr double kDramClockHz = 1e9;  // the serve latency proxy's DRAM clock

struct ServeWorkload {
  std::string name;
  serve::ServeConfig config;
  fault::FaultPlan plan;  // config.faults points here when non-empty
  std::vector<wl::ArrivalEvent> trace;
  std::string arrivals_json;  // the generator parameters behind `trace`
  // Fixed limits behind slo_attainment, in DRAM cycles from the arrival.
  double slo_ttft_cycles = 0.0;
  double slo_itl_cycles = 0.0;
  std::size_t core_replay_requests = 0;  // traced run: core-layer replay
  std::size_t accel_requests = 0;        // final queries run on the accel
};

serve::ServeConfig base_config() {
  serve::ServeConfig c;
  c.n_layer = 2;
  c.n_head = 2;
  c.head_dim = 64;
  c.backend = serve::BackendKind::token_picker;
  c.picker.estimator.threshold = 1e-3;  // the paper's operating point
  c.reclaim = true;
  c.threads = 3;  // plus the pipeline's lane thread: 4 threads
  c.pipeline = true;
  c.shard_replay = false;  // serial replay: no extra replay pool threads
  c.capture_outputs = false;
  c.simulate_dram = true;
  return c;
}

std::string arrival_params_json(const wl::ArrivalParams& a, std::size_t n) {
  return JsonObject()
      .str("kind", a.kind == wl::ArrivalKind::poisson ? "poisson" : "bursty")
      .num("rate_per_step", a.rate)
      .num("burst_factor", a.burst_factor)
      .num("burst_start_prob", a.burst_start_prob)
      .num("burst_stop_prob", a.burst_stop_prob)
      .integer("prompt_min", static_cast<long long>(a.prompt_min))
      .integer("prompt_max", static_cast<long long>(a.prompt_max))
      .integer("decode_min", static_cast<long long>(a.decode_min))
      .integer("decode_max", static_cast<long long>(a.decode_max))
      .integer("requests", static_cast<long long>(n))
      .done();
}

std::string priority_mix_json(const wl::PriorityMixParams& mix,
                              std::size_t n) {
  std::string classes = "[";
  for (std::size_t c = 0; c < mix.mix.size(); ++c) {
    const wl::PriorityClassMix& m = mix.mix[c];
    if (c > 0) classes += ", ";
    const auto priority = static_cast<wl::Priority>(c);
    classes += JsonObject()
                   .str("class", wl::priority_name(priority))
                   .num("weight", m.weight)
                   .integer("prompt_min", static_cast<long long>(m.prompt_min))
                   .integer("prompt_max", static_cast<long long>(m.prompt_max))
                   .integer("decode_min", static_cast<long long>(m.decode_min))
                   .integer("decode_max", static_cast<long long>(m.decode_max))
                   .integer("slo_ttft_steps",
                            static_cast<long long>(m.slo_ttft_steps))
                   .integer("slo_latency_steps",
                            static_cast<long long>(m.slo_latency_steps))
                   .integer("deadline_steps",
                            static_cast<long long>(m.deadline_steps))
                   .done();
  }
  classes += "]";
  return JsonObject()
      .raw("process", arrival_params_json(mix.arrivals, n))
      .raw("classes", classes)
      .done();
}

// Headline serving run: open-loop Poisson arrivals in the engine-step
// domain, below the knee, mixed lengths, DRAM simulation on.
void make_serve_poisson(std::uint64_t seed, ServeWorkload* w) {
  w->config = base_config();
  w->config.max_batch = 16;
  w->config.pool_pages = 8192;
  wl::ArrivalParams a;
  a.kind = wl::ArrivalKind::poisson;
  a.rate = 0.08;
  a.prompt_min = 32;
  a.prompt_max = 256;
  a.decode_min = 16;
  a.decode_max = 32;
  const std::size_t n = 200;
  Rng rng(seed);
  w->trace = wl::make_arrival_trace(a, n, rng);
  w->arrivals_json = arrival_params_json(a, n);
  w->slo_ttft_cycles = 40000;
  w->slo_itl_cycles = 3000;
  w->core_replay_requests = 8;
  w->accel_requests = 200;
}

// Lengths for an offline batch of a few requests. With the generator's
// i.i.d. draws, eight requests made decode_long_ctx's TTFT median spread 32%
// across seeds (bound 20%): it is the prefill time of whichever prompts are
// shortest. Instead request i takes the prompt and decode lengths at the same
// evenly spaced quantile of the generator's ranges, with ranks in a seeded
// order. Every seed then offers the same request shapes; the seed decides
// their order and every request's streams.
void offline_batch_lengths(const wl::ArrivalParams& a,
                           std::vector<wl::ArrivalEvent>* trace, Rng& rng) {
  const std::size_t n = trace->size();
  std::vector<std::size_t> rank(n);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.uniform_index(i)]);
  }
  auto quantile_len = [n](std::size_t lo, std::size_t hi, std::size_t r) {
    return lo + (2 * r + 1) * (hi - lo + 1) / (2 * n);
  };
  for (std::size_t i = 0; i < n; ++i) {
    wl::ArrivalEvent& e = (*trace)[i];
    e.step = 0;
    e.prompt_len = quantile_len(a.prompt_min, a.prompt_max, rank[i]);
    e.decode_len = quantile_len(a.decode_min, a.decode_max, rank[i]);
  }
}

// Offline batch at long context: every request arrives at step 0, DRAM
// simulation off in the timed run, so attention is the host cost.
void make_decode_long_ctx(std::uint64_t seed, ServeWorkload* w) {
  w->config = base_config();
  w->config.simulate_dram = false;
  wl::ArrivalParams a;
  a.kind = wl::ArrivalKind::poisson;
  a.prompt_min = 2048;
  a.prompt_max = 4032;
  a.decode_min = 32;
  a.decode_max = 64;
  const std::size_t n = 8;
  Rng rng(seed);
  w->trace = wl::make_arrival_trace(a, n, rng);
  offline_batch_lengths(a, &w->trace, rng);
  w->config.max_batch = n;
  w->config.pool_pages = n * 4096 / w->config.page_tokens *
                         static_cast<std::size_t>(w->config.n_layer *
                                                  w->config.n_head);
  w->arrivals_json =
      JsonObject()
          .raw("lengths", arrival_params_json(a, n))
          .str("arrival", "offline batch: every request due at step 0")
          .str("lengths_sampling",
               "evenly spaced quantiles of the ranges, prompt and decode "
               "of the same rank, ranks in a seeded order")
          .done();
  w->slo_ttft_cycles = 2e7;
  w->slo_itl_cycles = 2e5;
  w->core_replay_requests = n;
  w->accel_requests = n;
}

// Bursty priority mix past saturation on a tight pool with one degraded
// HBM channel, deadlines + retry + admission control, and the degradation
// controller: scheduling and the fault paths decide latencies and failures.
void make_serve_overload(std::uint64_t seed, ServeWorkload* w) {
  w->config = base_config();
  w->config.max_batch = 8;
  w->config.pool_pages = 192;
  w->config.policy = serve::PolicyKind::cost_aware_victim;
  w->config.policy_params.aging_steps = 96;
  w->config.enforce_deadlines = true;
  w->config.retry.max_retries = 2;
  w->config.retry.backoff_base_steps = 4;
  w->config.admission.reject_best_effort_utilization = 0.95;
  w->config.degradation.enabled = true;
  w->config.degradation.evaluate_every_steps = 4;
  w->config.degradation.hold_steps = 12;
  w->config.degradation.pool_hi = 0.60;
  w->config.degradation.pool_lo = 0.40;

  fault::ChannelFaultSpec degraded;
  degraded.channel = 0;
  degraded.fault.burst_multiplier = 3.0;
  degraded.fault.stall_period = 4096;
  degraded.fault.stall_cycles = 512;
  w->plan.seed = seed;
  w->plan.channels.push_back(degraded);
  w->config.faults = &w->plan;

  wl::PriorityMixParams mix;
  mix.arrivals.kind = wl::ArrivalKind::bursty;
  mix.arrivals.rate = 0.15;
  mix.arrivals.burst_factor = 4.0;
  // Every class has a deadline, so shedding bounds the backlog and the
  // overload is stationary: a longer trace averages more, not queues more.
  // Class shares keep the TTFT median inside the interactive mode and p90
  // inside the queued mode, away from the boundary between them.
  mix.mix[0] = wl::PriorityClassMix{0.6, 16, 48, 16, 48, 40, 128, 0};
  mix.mix[1] = wl::PriorityClassMix{0.25, 64, 160, 16, 48, 96, 512, 0};
  mix.mix[2] = wl::PriorityClassMix{0.15, 32, 96, 16, 48, 0, 0, 256};
  const std::size_t n = 600;
  Rng rng(seed);
  w->trace = wl::make_priority_mix_trace(mix, n, rng);
  w->arrivals_json = priority_mix_json(mix, n);
  w->slo_ttft_cycles = 400000;
  w->slo_itl_cycles = 20000;
  w->core_replay_requests = 8;
  w->accel_requests = 200;
}

// The executor the untraced timed rounds run: sequential, one host thread
// (no attention workers, no lane). Its outputs and simulated metrics are
// bit-identical to the pipelined executor's; its wall time is steady on a
// shared host, where the pipelined executor's cross-thread hand-offs swing
// a round by a quarter.
serve::ServeConfig sequential_config(serve::ServeConfig c) {
  c.threads = 1;
  c.pipeline = false;
  return c;
}

void make_workload(const std::string& name, std::uint64_t seed,
                   ServeWorkload* w) {
  w->name = name;
  if (name == "serve_poisson") {
    make_serve_poisson(seed, w);
  } else if (name == "decode_long_ctx") {
    make_decode_long_ctx(seed, w);
  } else {
    make_serve_overload(seed, w);
  }
}

std::string config_json(const ServeWorkload& w,
                        const serve::ServeConfig& timed) {
  const serve::ServeConfig& c = w.config;
  std::string faults = "[";
  for (std::size_t i = 0; c.faults != nullptr && i < c.faults->channels.size();
       ++i) {
    const fault::ChannelFaultSpec& f = c.faults->channels[i];
    if (i > 0) faults += ", ";
    faults += JsonObject()
                  .integer("channel", f.channel)
                  .num("burst_multiplier", f.fault.burst_multiplier)
                  .integer("stall_period",
                           static_cast<long long>(f.fault.stall_period))
                  .integer("stall_cycles",
                           static_cast<long long>(f.fault.stall_cycles))
                  .done();
  }
  faults += "]";
  const std::string engine =
      JsonObject()
          .integer("n_layer", c.n_layer)
          .integer("n_head", c.n_head)
          .integer("head_dim", c.head_dim)
          .integer("max_batch", static_cast<long long>(c.max_batch))
          .integer("pool_pages", static_cast<long long>(c.pool_pages))
          .integer("page_tokens", static_cast<long long>(c.page_tokens))
          .str("backend", "token_picker")
          .num("threshold", c.picker.estimator.threshold)
          .integer("quant_bits", c.picker.quant.total_bits)
          .integer("chunk_bits", c.picker.quant.chunk_bits)
          .boolean("reclaim", c.reclaim)
          .integer("persistence_window", c.persistence_window)
          .integer("threads", static_cast<long long>(c.threads))
          .boolean("pipeline", c.pipeline)
          .boolean("shard_replay", c.shard_replay)
          .integer("prefill_chunk_tokens",
                   static_cast<long long>(c.prefill_chunk_tokens))
          .integer("max_prefill", static_cast<long long>(c.max_prefill))
          .boolean("simulate_dram", c.simulate_dram)
          .integer("dram_channels", c.dram.channels)
          .boolean("dram_refresh", c.dram.enable_refresh)
          .str("policy", serve::policy_kind_name(c.policy))
          .integer("aging_steps",
                   static_cast<long long>(c.policy_params.aging_steps))
          .boolean("enforce_deadlines", c.enforce_deadlines)
          .integer("max_retries", c.retry.max_retries)
          .integer("backoff_base_steps",
                   static_cast<long long>(c.retry.backoff_base_steps))
          .num("reject_best_effort_utilization",
               c.admission.reject_best_effort_utilization)
          .boolean("degradation", c.degradation.enabled)
          .integer("degradation_evaluate_every_steps",
                   static_cast<long long>(c.degradation.evaluate_every_steps))
          .integer("degradation_hold_steps",
                   static_cast<long long>(c.degradation.hold_steps))
          .num("degradation_pool_hi", c.degradation.pool_hi)
          .num("degradation_pool_lo", c.degradation.pool_lo)
          .raw("channel_faults", faults)
          .done();
  return JsonObject()
      .str("workload", w.name)
      .raw("engine", engine)
      .raw("timed_rounds", JsonObject()
                               .integer("threads", static_cast<long long>(
                                                       timed.threads))
                               .boolean("pipeline", timed.pipeline)
                               .boolean("simulate_dram", timed.simulate_dram)
                               .done())
      .raw("arrivals", w.arrivals_json)
      .str("loop", "open, engine-step domain: each request is submitted "
                   "for its due step; TTFT counts from that step's cycle")
      .num("slo_ttft_cycles", w.slo_ttft_cycles)
      .num("slo_itl_cycles", w.slo_itl_cycles)
      .integer("core_replay_requests",
               static_cast<long long>(w.core_replay_requests))
      .integer("accel_requests", static_cast<long long>(w.accel_requests))
      .done();
}

// What the simulated run produced, from the per-request cycle stamps.
struct SimSummary {
  std::uint64_t tokens = 0;
  std::uint64_t dram_cycles = 0;
  double bytes_per_token = 0.0;
  std::vector<double> ttft;
  std::vector<double> itl;
  std::size_t submitted = 0;
  std::size_t slo_met = 0;
  std::uint64_t fingerprint = 0;  // every stamp and fleet counter
};

SimSummary summarize(const serve::ServeEngine& engine, const ServeWorkload& w) {
  SimSummary s;
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = fnv1a(&v, sizeof(v), h); };
  for (const serve::Request& r : engine.requests()) {
    ++s.submitted;
    s.tokens += r.generated;
    const bool finished = r.state == serve::RequestState::finished;
    double ttft = 0.0, itl = 0.0;
    if (r.first_token_recorded) {
      ttft = static_cast<double>(r.ttft_cycles());
      s.ttft.push_back(ttft);
    }
    if (finished && r.generated >= 2) {
      itl = static_cast<double>(r.finish_cycle - r.first_token_cycle) /
            static_cast<double>(r.generated - 1);
      s.itl.push_back(itl);
    }
    if (finished && ttft <= w.slo_ttft_cycles && itl <= w.slo_itl_cycles) {
      ++s.slo_met;
    }
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(r.state), std::uint64_t{r.generated},
          static_cast<std::uint64_t>(r.preemptions),
          static_cast<std::uint64_t>(r.attempts), std::uint64_t{r.admit_step},
          std::uint64_t{r.finish_step}, std::uint64_t{r.first_token_step},
          r.arrival_cycle, r.first_token_cycle, r.finish_cycle, r.dram_cycles,
          r.stats.k_bits_fetched, r.stats.v_bits_fetched,
          r.stats.tokens_kept}) {
      mix(v);
    }
  }
  const serve::FleetMetrics& m = engine.metrics();
  s.dram_cycles = m.dram_cycles;
  s.bytes_per_token = m.bytes_per_token();
  for (const std::uint64_t v :
       {m.tokens_generated, m.dram_cycles, m.preemptions, m.prefill_tokens,
        m.prefill_bits, m.decode_write_bits, m.pages_reclaimed,
        std::uint64_t{m.requests_failed}, m.retries, m.rejections,
        m.deadline_misses, m.degraded_tokens, m.stats.total_bits_fetched()}) {
    mix(v);
  }
  s.fingerprint = h;
  return s;
}

struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t tokens = 0;
};

// One untraced round: construct + submit (set-up), then step to the end.
Round timed_round(const ServeWorkload& w, const serve::ServeConfig& config,
                  SimSummary* summary) {
  Round r;
  const std::uint64_t t0 = now_ns();
  auto engine = std::make_unique<serve::ServeEngine>(config);
  engine->submit_trace(w.trace);
  r.setup_s = seconds_since(t0);
  const std::uint64_t t1 = now_ns();
  while (engine->step()) {
  }
  r.run_s = seconds_since(t1);
  *summary = summarize(*engine, w);
  r.tokens = summary->tokens;
  return r;
}

// ---- output check -----------------------------------------------------------

// memsim as the program's tracer saw it: transactions replayed (the memsim
// `replay` events' granules) and host time in the `dram_replay` spans.
struct ReplayTrace {
  std::uint64_t cycles = 0;
  std::uint64_t granules = 0;
  double host_ns = 0.0;
};

ReplayTrace read_replay_trace(const obs::TraceRecorder& recorder,
                              std::uint64_t dram_cycles) {
  ReplayTrace r;
  r.cycles = dram_cycles;
  for (std::size_t t = 0; t < recorder.tracks(); ++t) {
    for (const obs::TraceEvent& e : recorder.track_events(t)) {
      const std::string_view name(e.name);
      if (name == "dram_replay") {
        r.host_ns += static_cast<double>(e.dur);
      } else if (name == "replay" && e.domain == obs::TraceDomain::memsim) {
        for (std::size_t a = 0; a < e.n_args; ++a) {
          if (std::string_view(e.args[a].key) == "granules") {
            r.granules += static_cast<std::uint64_t>(e.args[a].value);
          }
        }
      }
    }
  }
  return r;
}

struct CheckRun {
  std::vector<std::uint64_t> request_digest;  // outputs + tokens per request
  SimSummary sim;
  double output_rel_err_max = 0.0;
  double pruned_mass_max = 0.0;
  ReplayTrace replay;  // when run with a recorder
};

std::uint64_t request_digest(const serve::Request& r) {
  std::uint64_t h = fnv1a(&r.state, sizeof(r.state));
  h = fnv1a(&r.generated, sizeof(r.generated), h);
  for (const serve::StepOutput& s : r.outputs) {
    h = fnv1a(&s.position, sizeof(s.position), h);
    for (std::size_t i = 0; i < s.out.size(); ++i) {
      h = fnv1a(s.out[i].data(), s.out[i].size() * sizeof(float), h);
      h = fnv1a(s.view_tokens[i].data(),
                s.view_tokens[i].size() * sizeof(std::size_t), h);
      h = fnv1a(s.kept_tokens[i].data(),
                s.kept_tokens[i].size() * sizeof(std::size_t), h);
    }
  }
  return h;
}

// Every output against float exact attention over the request's full
// context (reclaimed tokens included). output_rel_err_max is the worst
// (layer, head) position's relative L2 error over all of its outputs;
// pruned_mass_max is the worst single output's exact softmax mass on the
// tokens the engine did not keep.
void measure_output_error(const serve::ServeEngine& engine, CheckRun* run) {
  const serve::ServeConfig& c = engine.config();
  const auto n_inst = static_cast<std::size_t>(c.n_layer * c.n_head);
  std::vector<double> err(n_inst, 0.0), ref(n_inst, 0.0);
  for (const serve::Request& r : engine.requests()) {
    for (const serve::StepOutput& step : r.outputs) {
      const std::size_t decode_step = step.position - r.event.prompt_len;
      for (int layer = 0; layer < c.n_layer; ++layer) {
        for (int head = 0; head < c.n_head; ++head) {
          const auto inst = static_cast<std::size_t>(layer * c.n_head + head);
          const ExactAttentionResult exact = exact_attention_f32(
              r.stream.query(layer, head, decode_step),
              r.stream.context_view(layer, head, step.position + 1));
          for (std::size_t d = 0; d < exact.output.size(); ++d) {
            const double diff =
                static_cast<double>(step.out[inst][d]) - exact.output[d];
            err[inst] += diff * diff;
            ref[inst] += static_cast<double>(exact.output[d]) * exact.output[d];
          }
          double kept_mass = 0.0;
          for (const std::size_t t : step.kept_tokens[inst]) {
            kept_mass += exact.probs[t];
          }
          run->pruned_mass_max =
              std::max(run->pruned_mass_max, 1.0 - kept_mass);
        }
      }
    }
  }
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (ref[i] > 0.0) {
      run->output_rel_err_max =
          std::max(run->output_rel_err_max, std::sqrt(err[i] / ref[i]));
    }
  }
}

// Runs the workload with captured outputs and DRAM simulation at the given
// thread count; checks terminal states and the pool, digests every output.
// `accel_out` receives the workload's own attention instances.
CheckRun check_run(const ServeWorkload& w, std::size_t threads, bool measure,
                   obs::TraceRecorder* recorder,
                   std::vector<AttentionInstance>* accel_out, Report* report) {
  serve::ServeConfig config = w.config;
  config.threads = threads;
  config.capture_outputs = true;
  config.simulate_dram = true;
  config.trace = recorder;
  serve::ServeEngine engine(config);
  engine.submit_trace(w.trace);
  while (engine.step()) {
  }

  CheckRun run;
  run.sim = summarize(engine, w);
  const std::string tag = "threads=" + std::to_string(threads) + ": ";
  for (const serve::Request& r : engine.requests()) {
    run.request_digest.push_back(request_digest(r));
    const bool finished = r.state == serve::RequestState::finished;
    if (!finished && r.state != serve::RequestState::failed) {
      report->fail_op(r.event.request_id,
                      tag + "request " + std::to_string(r.event.request_id) +
                          " did not end terminal");
    } else if (r.outputs.size() != r.generated ||
               (finished && r.generated != r.event.decode_len)) {
      report->fail_op(r.event.request_id,
                      tag + "request " + std::to_string(r.event.request_id) +
                          " output count does not match its tokens");
    }
  }
  if (engine.pool().pages_free() != engine.pool().pages_total()) {
    report->fail_run(tag + "pool pages not all returned (" +
                     std::to_string(engine.pool().pages_free()) + " of " +
                     std::to_string(engine.pool().pages_total()) + " free)");
  }
  if (measure) measure_output_error(engine, &run);
  if (recorder != nullptr) {
    run.replay = read_replay_trace(*recorder, engine.metrics().dram_cycles);
  }
  if (accel_out != nullptr) {
    const std::size_t n = std::min(w.accel_requests, engine.requests().size());
    for (std::size_t i = 0; i < n; ++i) {
      const wl::DecodeStream& s = engine.requests()[i].stream;
      const std::size_t len = s.total_tokens();
      for (int layer = 0; layer < s.n_layer; ++layer) {
        for (int head = 0; head < s.n_head; ++head) {
          AttentionInstance inst;
          const auto q = s.query(layer, head, s.decode_len - 1);
          const auto view = s.context_view(layer, head, len);
          inst.q.assign(q.begin(), q.end());
          inst.keys.assign(view.keys, view.keys + len * view.head_dim);
          inst.values.assign(view.values, view.values + len * view.head_dim);
          inst.len = len;
          inst.head_dim = view.head_dim;
          accel_out->push_back(std::move(inst));
        }
      }
    }
  }
  return run;
}

// ---- traced round -----------------------------------------------------------

struct TracedRound {
  double tok_per_s = 0.0;
  // Median over the untraced rounds of the same (pipelined) executor.
  double pipelined_tok_per_s = 0.0;
  std::uint64_t steps = 0;
  std::vector<double> batch;
  obs::StepPhaseStats phases;
  serve::FleetMetrics metrics;
  std::size_t pool_peak_pages = 0;
  double queue_wait_steps_mean = 0.0;
  double prefill_useful_frac = 0.0;
  std::vector<double> step_ns;  // the benchmark's spans around step()
  double submit_ms = 0.0;
  CoreLayerStats core;
  KernelTimes kernels;
  ReplayTrace replay;
  Spans spans;  // the benchmark's track in the round's recorder
};

// One round with the program's tracer and phase stats on, and the
// benchmark's spans on a track of their own in the same recorder; then the
// core layer and the fixedpoint kernels on the workload's own streams.
TracedRound traced_round(const ServeWorkload& w, obs::TraceRecorder* recorder) {
  TracedRound t;
  serve::ServeConfig config = w.config;
  config.trace = recorder;
  config.collect_phase_stats = true;

  const std::uint64_t setup_start = recorder->now_ns();
  auto engine = std::make_unique<serve::ServeEngine>(config);
  const std::uint64_t constructed = recorder->now_ns();
  // Past the tracks the engine registered for its workers and lane.
  const Spans spans = own_track(recorder);
  {
    const auto submit_span = span(spans, "serve.submit_trace");
    engine->submit_trace(w.trace);
  }
  record_span(spans, "serve.construct", setup_start, constructed);
  record_span(spans, "serve.setup", setup_start, recorder->now_ns());
  const std::uint64_t run_start = now_ns();
  {
    const auto run_span = span(spans, "serve.run");
    bool more = true;
    while (more) {
      {
        const auto step_span = span(spans, "serve.step");
        more = engine->step();
      }
      t.batch.push_back(
          static_cast<double>(engine->batcher().running().size()));
    }
  }
  const double run_s = seconds_since(run_start);

  t.metrics = engine->metrics();
  t.steps = t.metrics.engine_steps;
  t.phases = engine->phase_stats();
  t.pool_peak_pages = engine->pool().peak_pages_in_use();
  t.replay = read_replay_trace(*recorder, t.metrics.dram_cycles);
  t.step_ns = span_durations_ns(spans, "serve.step");
  t.submit_ms = span_durations_ns(spans, "serve.submit_trace").at(0) * 1e-6;
  std::vector<double> waits;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t tokens = 0;
  for (const serve::Request& r : engine->requests()) {
    tokens += r.generated;
    if (r.first_token_recorded) {
      waits.push_back(static_cast<double>(r.queue_wait_steps()));
    }
    if (r.prefill_bits > 0) prompt_tokens += r.event.prompt_len;
  }
  t.tok_per_s = static_cast<double>(tokens) / run_s;
  t.queue_wait_steps_mean = mean(waits);
  t.prefill_useful_frac =
      t.metrics.prefill_tokens > 0
          ? static_cast<double>(prompt_tokens) /
                static_cast<double>(t.metrics.prefill_tokens)
          : 0.0;

  // The core layer over the workload's own decode streams.
  std::vector<HeadReplay> heads;
  std::vector<float> kernel_rows;
  const std::size_t n_core =
      std::min(w.core_replay_requests, engine->requests().size());
  for (std::size_t i = 0; i < engine->requests().size(); ++i) {
    const wl::DecodeStream& s = engine->requests()[i].stream;
    if (i < n_core) {
      for (int layer = 0; layer < s.n_layer; ++layer) {
        for (int head = 0; head < s.n_head; ++head) {
          const wl::HeadStream& hs = s.head(layer, head);
          heads.push_back(HeadReplay{hs.keys.data(), hs.values.data(),
                                     hs.queries.data(), s.total_tokens(),
                                     s.prompt_len, s.prompt_len,
                                     static_cast<std::size_t>(s.head_dim)});
        }
      }
    }
    if (kernel_rows.size() < 4096 * static_cast<std::size_t>(s.head_dim)) {
      const auto& keys = s.head(0, 0).keys;
      kernel_rows.insert(kernel_rows.end(), keys.begin(), keys.end());
    }
  }
  t.core = replay_core(heads, w.config.picker, w.config.persistence_window,
                       spans);
  {
    const auto kernel_span = span(spans, "fixedpoint.kernels");
    const auto d = static_cast<std::size_t>(w.config.head_dim);
    t.kernels = time_kernels(kernel_rows.data(), kernel_rows.size() / d, d);
  }
  t.spans = spans;
  return t;
}

void add_serve_layer_metrics(const TracedRound& t, Report* report) {
  report->add("serve.pipelined_tok_per_s", t.pipelined_tok_per_s, "tok/s");
  report->add("serve.steps", static_cast<double>(t.steps), "count");
  report->add("serve.step_us_p50", quantile(t.step_ns, 0.5) * 1e-3, "us",
              t.step_ns.size());
  report->add("serve.step_us_p99", quantile(t.step_ns, 0.99) * 1e-3, "us",
              t.step_ns.size());
  const obs::StepPhaseStats& p = t.phases;
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; };
  report->add("serve.admit_ms", ms(p.admit_ns), "ms");
  report->add("serve.append_ms", ms(p.append_ns), "ms");
  report->add("serve.attention_wall_ms", ms(p.attention_wall_ns), "ms");
  report->add("serve.attention_busy_ms", ms(p.attention_busy_ns), "ms");
  report->add("serve.barrier_wait_ms", ms(p.barrier_wait_ns), "ms");
  report->add("serve.reduce_overlap_ms", ms(p.reduce_overlap_ns), "ms");
  report->add("serve.lane_busy_ms", ms(p.lane_busy_ns), "ms");
  report->add("serve.lane_wait_ms", ms(p.lane_wait_ns), "ms");
  report->add("serve.batch_mean", mean(t.batch), "requests", t.batch.size());
  report->add("serve.queue_wait_steps_mean", t.queue_wait_steps_mean, "steps");
  const serve::FleetMetrics& m = t.metrics;
  report->add("serve.preemptions", static_cast<double>(m.preemptions), "count");
  report->add("serve.prefill_useful_frac", t.prefill_useful_frac, "share");
  report->add("serve.pool_peak_pages", static_cast<double>(t.pool_peak_pages),
              "pages");
  report->add("serve.pages_reclaimed", static_cast<double>(m.pages_reclaimed),
              "pages");
  report->add("serve.kv_resident_bytes_peak",
              static_cast<double>(m.kv_resident_bytes_peak), "B");
  report->add("serve.requests_failed", static_cast<double>(m.requests_failed),
              "count");
  report->add("serve.retries", static_cast<double>(m.retries), "count");
  report->add("serve.rejections", static_cast<double>(m.rejections), "count");
  report->add("serve.deadline_misses", static_cast<double>(m.deadline_misses),
              "count");
  report->add("serve.degraded_tokens", static_cast<double>(m.degraded_tokens),
              "count");
  report->add("serve.setup.submit_ms", t.submit_ms, "ms");
}

void add_memsim_metrics(const ReplayTrace& replay,
                        const serve::ServeConfig& config, Report* report) {
  const auto cycles = static_cast<double>(replay.cycles);
  const auto granules = static_cast<double>(replay.granules);
  report->add("memsim.cycles", cycles, "cycles");
  report->add("memsim.requests", granules, "count");
  report->add("memsim.host_ns_per_cycle",
              cycles > 0 ? replay.host_ns / cycles : 0.0, "ns");
  report->add("memsim.host_ns_per_request",
              granules > 0 ? replay.host_ns / granules : 0.0, "ns");
  report->add("memsim.bus_util",
              cycles > 0 ? granules * config.dram.transaction_bytes /
                               (cycles * config.dram.peak_bytes_per_cycle())
                         : 0.0,
              "share");
}

}  // namespace

void add_idle_serve_layer_metrics(Report* report) {
  const std::size_t first = report->metrics.size();
  add_serve_layer_metrics(TracedRound{}, report);
  for (std::size_t i = first; i < report->metrics.size(); ++i) {
    report->metrics[i].note = "idle: no serve engine in this workload";
  }
}

bool is_serve_workload(const std::string& name) {
  return name == "serve_poisson" || name == "decode_long_ctx" ||
         name == "serve_overload";
}

void run_serve_workload(const Options& options, Report* report) {
  ServeWorkload w;
  make_workload(options.workload, options.seed, &w);
  // The traced run times the executor its traced round runs, so that
  // trace_overhead_frac compares like with like.
  const serve::ServeConfig timed =
      options.trace ? w.config : sequential_config(w.config);
  report->config_json = config_json(w, timed);
  report->attempted = w.trace.size();

  // Timed rounds: identical replays of the trace, each set up afresh
  // (TimedLoop; medians below).
  std::vector<double> setup_s;
  SimSummary first;
  TimedLoop loop(options.seconds);
  while (loop.next()) {
    SimSummary sim;
    const Round r = timed_round(w, timed, &sim);
    loop.done(static_cast<double>(r.tokens), r.run_s);
    if (loop.rounds() == 1) {
      first = sim;
    } else if (sim.fingerprint != first.fingerprint) {
      report->fail_run("round " + std::to_string(loop.rounds() - 1) +
                       " simulated differently from round 0");
    }
    setup_s.push_back(r.setup_s);
  }
  const double host_tok_per_s = median(loop.per_s);
  const double rss_mb = peak_rss_mb();

  obs::TraceRecorder recorder;
  TracedRound traced;
  if (options.trace) traced = traced_round(w, &recorder);

  // Untimed output check at threads = 3 and threads = 1, both simulating
  // DRAM, as the timed rounds of serve_poisson and serve_overload do. Every
  // output and every simulated metric must match across the two runs, and
  // the timed rounds' simulated metrics must match the threads = 3 run.
  const bool timed_dram = w.config.simulate_dram;
  obs::TraceRecorder check_recorder;
  std::vector<AttentionInstance> instances;
  const CheckRun c3 =
      check_run(w, 3, true,
                options.trace && !timed_dram ? &check_recorder : nullptr,
                &instances, report);
  const CheckRun c1 = check_run(w, 1, false, nullptr, nullptr, report);
  for (std::size_t i = 0; i < c3.request_digest.size(); ++i) {
    if (c3.request_digest[i] != c1.request_digest[i]) {
      report->fail_op(i, "request " + std::to_string(i) +
                             " outputs differ between threads=3 and threads=1");
    }
  }
  const SimSummary& sim = c3.sim;
  if (sim.fingerprint != c1.sim.fingerprint) {
    report->fail_run(
        "simulated metrics differ between threads=3 and threads=1");
  }
  if (timed_dram && sim.fingerprint != first.fingerprint) {
    report->fail_run(
        "simulated metrics differ between the timed rounds and the check run");
  }

  // The accelerator on this workload's own final-step attention instances.
  const std::uint64_t gen_start = now_ns();
  for (AttentionInstance& inst : instances) {
    inst.hw = encode_for_accel(inst.q.data(), inst.keys.data(),
                               inst.values.data(), inst.len, inst.head_dim);
  }
  const double instance_gen_ms = seconds_since(gen_start) * 1e3;
  const AccelSummary accel = run_accel_designs(
      instances, w.config.picker.estimator.threshold, traced.spans);
  const auto heads =
      static_cast<std::size_t>(w.config.n_layer * w.config.n_head);
  for (const std::size_t i : accel.unsound) {
    report->fail_op(i / heads,
                    "request " + std::to_string(i / heads) +
                        ": the accelerator (topick_ooo) pruned a token at or "
                        "above the threshold on its final query");
  }

  if (!options.trace) {
    report->add("host_tok_per_s", host_tok_per_s, "tok/s", loop.rounds(),
                loop.note());
    report->add("setup_s", median(setup_s), "s", setup_s.size(),
                range_note(setup_s));
    report->add("peak_rss_mb", rss_mb, "MB");
    report->add("sim_tok_per_s",
                static_cast<double>(sim.tokens) /
                    (static_cast<double>(sim.dram_cycles) / kDramClockHz),
                "tok/s");
    report->add("bytes_per_token", sim.bytes_per_token, "B", sim.tokens);
    report->add("ttft_cycles_p50", quantile(sim.ttft, 0.5), "cycles",
                sim.ttft.size());
    report->add("ttft_cycles_p90", quantile(sim.ttft, 0.9), "cycles",
                sim.ttft.size());
    report->add("itl_cycles_p50", quantile(sim.itl, 0.5), "cycles",
                sim.itl.size());
    report->add("itl_cycles_p90", quantile(sim.itl, 0.9), "cycles",
                sim.itl.size());
    report->add("slo_attainment",
                static_cast<double>(sim.slo_met) /
                    static_cast<double>(sim.submitted),
                "share", sim.submitted);
    report->add("output_rel_err_max", c3.output_rel_err_max, "ratio",
                sim.tokens);
    add_accel_ratio_metrics(accel, report);
    return;
  }

  traced.pipelined_tok_per_s = host_tok_per_s;
  add_serve_layer_metrics(traced, report);
  add_core_metrics(traced.core, traced.metrics.stats, c3.pruned_mass_max,
                   report);
  add_kernel_metrics(traced.kernels, traced.metrics.stats, report);
  add_memsim_metrics(timed_dram ? traced.replay : c3.replay, w.config, report);
  add_accel_layer_metrics(accel, instance_gen_ms, report);
  report->add("trace_overhead_frac",
              1.0 - traced.tok_per_s / median(loop.wall_per_s),
              "share");
  report->span_totals = span_totals(traced.spans);
}

}  // namespace perfbench
