// The repository benchmark executable. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
// Prints one line per metric (value, unit, sample count), the operations
// attempted and failed, an `artifact` line holding the host block, the
// workload config that ran and every metric, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any correctness check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "fixedpoint/dispatch.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--commit") {
      o->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o->seconds > 0.0 &&
         (is_serve_workload(o->workload) || o->workload == "accel_ooo");
}

// Host-time metrics compare only between Release builds that run the
// kernel ISA the CPU probe picked.
bool host_metrics_comparable() {
  return std::string(PERFBENCH_BUILD_TYPE) == "Release" &&
         !topick::fx::kernel_isa_forced();
}

std::string host_json(const Options& o) {
  const auto supported = topick::fx::supported_kernel_tables();
  return JsonObject()
      .integer("nproc", std::thread::hardware_concurrency())
      .str("kernel_isa", topick::fx::kernel_isa_name())
      .str("kernel_isa_probed", supported.back()->name)
      .boolean("kernel_isa_forced", topick::fx::kernel_isa_forced())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .str("commit", o.commit)
      .boolean("host_metrics_comparable", host_metrics_comparable())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_poisson|decode_long_ctx|"
                 "serve_overload|accel_ooo> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>]\n");
    return 2;
  }

  Report report;
  if (options.workload == "accel_ooo") {
    run_accel_workload(options, &report);
  } else {
    run_serve_workload(options, &report);
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail_run(m.name + " is not a finite number");
    }
  }

  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  if (!host_metrics_comparable()) {
    std::printf("HOST METRICS NOT COMPARABLE: build type %s, kernel ISA %s%s\n",
                PERFBENCH_BUILD_TYPE, topick::fx::kernel_isa_name(),
                topick::fx::kernel_isa_forced() ? " (forced)" : "");
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-44s %16.6g %-7s n=%zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  if (!report.span_totals.empty()) {
    std::printf("  spans (benchmark's own, around public calls):\n");
    std::printf("    %-28s %10s %12s %12s\n", "span", "count", "total ms",
                "self ms");
    for (const SpanTotals& t : report.span_totals) {
      std::printf("    %-28s %10zu %12.3f %12.3f\n", t.name.c_str(), t.count,
                  t.total_ms, t.self_ms);
    }
  }
  std::printf("operations attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed()));
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string metrics_list = "[";
  std::string metrics_obj = "{";
  std::string failures = "[";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const std::string sep = i > 0 ? ", " : "";
    metrics_list += sep + JsonObject()
                              .str("name", m.name)
                              .num("value", m.value)
                              .str("unit", m.unit)
                              .integer("samples",
                                       static_cast<long long>(m.samples))
                              .str("note", m.note)
                              .done();
    metrics_obj +=
        sep + json_string(m.name) + ": " +
        JsonObject().num("value", m.value).str("unit", m.unit).done();
  }
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + json_string(report.failures[i]);
  }
  metrics_list += "]";
  metrics_obj += "}";
  failures += "]";
  std::printf("artifact %s\n",
              JsonObject()
                  .raw("host", host_json(options))
                  .str("workload", options.workload)
                  .integer("seed", static_cast<long long>(options.seed))
                  .num("seconds", options.seconds)
                  .boolean("trace", options.trace)
                  .raw("config", report.config_json)
                  .raw("metrics", metrics_list)
                  .integer("attempted",
                           static_cast<long long>(report.attempted))
                  .integer("failed", static_cast<long long>(report.failed()))
                  .raw("failures", failures)
                  .done()
                  .c_str());
  const bool correct = report.failed() == 0;
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .integer("attempted",
                                   static_cast<long long>(report.attempted))
                          .integer("failed",
                                   static_cast<long long>(report.failed()))
                          .raw("metrics", metrics_obj)
                          .done()
                          .c_str());
  return correct ? 0 : 1;
}
