// Shared pieces of the repository benchmark: options, the metric report,
// the benchmark's own spans, and small statistics/timing helpers.
//
// The benchmark measures every layer from outside: it only calls the public
// functions of serve/, core/, fixedpoint/, memsim/ (through the engines) and
// accel/, and times those calls itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  std::string commit = "unknown";
};

// Monotonic nanoseconds since the first call.
std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

// The timed loop behind every host throughput metric. Rounds repeat: at
// least three, and more while the next one still ends within `seconds` of
// the first. A fixed probe of the host's speed runs before and after each
// round: a dependent integer chain, random reads over a 16 MiB buffer and
// five streaming passes over it, the kinds of work the program's host time
// is made of. A shared host's speed drifts by a fifth within minutes as its other
// tenants come and go, and the probe drifts with it, so each round's time
// is scaled by kProbeReferenceS / (the mean of its two probes): the time
// the round would have taken on the host the benchmark was tuned on.
class TimedLoop {
 public:
  // The probe's time on that host (4-vCPU Xeon VM, AVX-512, GCC 12.2,
  // Release build, quiet).
  static constexpr double kProbeReferenceS = 0.044;

  explicit TimedLoop(double seconds);
  // Starts a round, or returns false when the loop is done.
  bool next();
  // Ends the round begun by next(): `work` units done in `timed_s` wall
  // seconds.
  void done(double work, double timed_s);
  std::size_t rounds() const { return per_s.size(); }
  // "wall <median> /s, host speed <median> (min <a> max <b>)" for the
  // human-readable output.
  std::string note() const;

  std::vector<double> per_s;       // work per reference second, per round
  std::vector<double> wall_per_s;  // work per wall second, per round
  std::vector<double> host_speed;  // kProbeReferenceS / probe, per round

 private:
  double seconds_;
  std::uint64_t loop_start_ns_;
  std::uint64_t round_start_ns_ = 0;
  double last_round_s_ = 0.0;
  double probe_before_s_ = 0.0;
};

// The benchmark's own spans around calls into the program's layers: 'X'
// events on a track of their own in a program obs::TraceRecorder, recorded
// with obs::TraceSpan. A null recorder makes every span a no-op.
struct Spans {
  topick::obs::TraceRecorder* recorder = nullptr;
  std::size_t track = 0;
};
// A new track past every track the recorder has now. Open it after the
// engine that shares the recorder has registered its own tracks.
Spans own_track(topick::obs::TraceRecorder* recorder);
// An RAII span on the benchmark's track.
inline topick::obs::TraceSpan span(const Spans& spans, const char* name) {
  return topick::obs::TraceSpan(spans.recorder, spans.track, name,
                                "perfbench");
}
// Records a span timed on the recorder's clock (recorder->now_ns()).
void record_span(const Spans& spans, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);

// Per span name on the benchmark's track, in start order. Spans nest by
// containment; a span's self time is its duration minus the time its direct
// children cover.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanTotals> span_totals(const Spans& spans);
// Durations (ns) of every span with this name, in start order.
std::vector<double> span_durations_ns(const Spans& spans,
                                      std::string_view name);

// One reported metric. `samples` is how many measurements the value
// summarizes (rounds for host medians, requests for latency percentiles).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  // printed beside the value (reference figures, scope)
};

// Everything one run prints: metrics, the operation counts, correctness
// failures, and the self-describing config block.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& note = "");
  // A failed correctness check on operation `op` (a request or instance).
  void fail_op(std::size_t op, const std::string& what);
  // A failed check on the whole run: every operation counts as failed.
  void fail_run(const std::string& what);
  // Operations with at least one failed check.
  std::uint64_t failed() const;

  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::string config_json;  // the workload config that actually ran
  std::vector<SpanTotals> span_totals;  // traced runs only

 private:
  std::set<std::size_t> failed_ops_;
  bool run_failed_ = false;
};

// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
double quantile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);
// "min <a> max <b>" of a sample, for the human-readable output.
std::string range_note(const std::vector<double>& values);

double peak_rss_mb();

// 64-bit FNV-1a over raw bytes, chained through `hash`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

// Minimal JSON object builder for the config/host blocks.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, long long value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};
std::string json_number(double value);
std::string json_string(const std::string& value);  // quoted and escaped

// Workload entry points (serve_workloads.cpp / accel_workload.cpp).
bool is_serve_workload(const std::string& name);
void run_serve_workload(const Options& options, Report* report);
void run_accel_workload(const Options& options, Report* report);
// The serve layer's per-layer metrics, all zero, for a workload that runs
// no serve engine.
void add_idle_serve_layer_metrics(Report* report);

// The paper's headline figures (Token-Picker, DAC 2024; the repository's
// bench_fig10_speedup_energy and EXPERIMENTS numbers).
inline constexpr double kPaperSpeedup = 2.28;
inline constexpr double kPaperEnergyEff = 2.41;
inline constexpr double kPaperPruningRatio = 12.1;
inline constexpr double kPaperKvFetchReduction = 2.6;

}  // namespace perfbench
