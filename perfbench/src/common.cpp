#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "perfbench.h"

namespace perfbench {

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& note) {
  metrics.push_back(Metric{name, value, unit, samples, note});
}

void Report::fail_op(std::size_t op, const std::string& what) {
  failed_ops_.insert(op);
  failures.push_back(what);
}

void Report::fail_run(const std::string& what) {
  run_failed_ = true;
  failures.push_back(what);
}

std::uint64_t Report::failed() const {
  return run_failed_ ? attempted : failed_ops_.size();
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

namespace {

volatile std::uint64_t probe_sink;  // keeps the probe's work observable

// One pass of the host-speed probe; returns its wall seconds.
double probe_host_s() {
  static std::vector<std::uint64_t> buffer;
  if (buffer.empty()) {
    buffer.resize((16u << 20) / sizeof(std::uint64_t));
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] = i * 0x9e3779b97f4a7c15ull;
    }
  }
  const std::uint64_t start = now_ns();
  std::uint64_t chain = 1;
  for (std::uint64_t i = 0; i < 15000000; ++i) chain = chain * 3 + i;
  std::uint64_t lcg = chain | 1;
  std::uint64_t sum = 0;
  for (int i = 0; i < 1250000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    sum += buffer[(lcg >> 20) % buffer.size()];
  }
  for (int pass = 0; pass < 5; ++pass) {
    for (const std::uint64_t v : buffer) sum += v;
  }
  const double s = seconds_since(start);
  probe_sink = sum;
  return s;
}

}  // namespace

TimedLoop::TimedLoop(double seconds)
    : seconds_(seconds), loop_start_ns_(now_ns()) {
  probe_host_s();  // allocate and touch the probe's buffer
}

bool TimedLoop::next() {
  if (rounds() >= 3 &&
      seconds_since(loop_start_ns_) + last_round_s_ >= seconds_) {
    return false;
  }
  round_start_ns_ = now_ns();
  probe_before_s_ = probe_host_s();
  return true;
}

void TimedLoop::done(double work, double timed_s) {
  const double probe_s = 0.5 * (probe_before_s_ + probe_host_s());
  const double speed = kProbeReferenceS / probe_s;
  host_speed.push_back(speed);
  wall_per_s.push_back(work / timed_s);
  per_s.push_back(work / (timed_s * speed));
  last_round_s_ = seconds_since(round_start_ns_);
}

std::string TimedLoop::note() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wall %.6g /s, host speed %.3f (",
                median(wall_per_s), median(host_speed));
  return buf + range_note(host_speed) + ")";
}

Spans own_track(topick::obs::TraceRecorder* recorder) {
  const std::size_t track = recorder->tracks();
  recorder->ensure_tracks(track + 1);
  return Spans{recorder, track};
}

void record_span(const Spans& spans, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  if (spans.recorder == nullptr) return;
  topick::obs::TraceEvent e;
  e.name = name;
  e.cat = "perfbench";
  e.ts = start_ns;
  e.dur = end_ns - start_ns;
  spans.recorder->record(spans.track, e);
}

namespace {

// The track's spans by start, an enclosing span before the spans it holds.
std::vector<const topick::obs::TraceEvent*> sorted_spans(const Spans& spans) {
  std::vector<const topick::obs::TraceEvent*> out;
  if (spans.recorder == nullptr) return out;
  for (const auto& e : spans.recorder->track_events(spans.track)) {
    if (e.phase == 'X') out.push_back(&e);
  }
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
  });
  return out;
}

}  // namespace

std::vector<SpanTotals> span_totals(const Spans& spans) {
  const auto events = sorted_spans(spans);
  std::vector<double> child_ns(events.size(), 0.0);
  std::vector<std::size_t> open;  // the spans enclosing the current one
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t end = events[i]->ts + events[i]->dur;
    while (!open.empty() &&
           events[open.back()]->ts + events[open.back()]->dur < end) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += static_cast<double>(events[i]->dur);
    }
    open.push_back(i);
  }
  std::vector<SpanTotals> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string_view name(events[i]->name);
    auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotals& t) {
      return t.name == name;
    });
    if (it == out.end()) {
      out.push_back(SpanTotals{std::string(name), 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    const auto dur = static_cast<double>(events[i]->dur);
    ++it->count;
    it->total_ms += dur * 1e-6;
    it->self_ms += (dur - child_ns[i]) * 1e-6;
  }
  return out;
}

std::vector<double> span_durations_ns(const Spans& spans,
                                      std::string_view name) {
  std::vector<double> out;
  for (const auto* e : sorted_spans(spans)) {
    if (name == e->name) out.push_back(static_cast<double>(e->dur));
  }
  return out;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::string range_note(const std::vector<double>& values) {
  if (values.empty()) return "";
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "min %.6g max %.6g", *lo, *hi);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
