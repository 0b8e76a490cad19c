// rfade end-to-end benchmark program.
//
//   perfbench --workload stream|serve|churn --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Runs one workload, checks its outputs, and prints as its last stdout
// line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics when --trace 0, the per-layer metrics when
// --trace 1.  The full report (reference tails, counts, check details)
// goes to DIR/<workload>-seed<N>-trace<T>.json, and a traced run also
// writes its span list and per-span self times to
// DIR/<workload>-seed<N>-spans.json.  Exit status 1 when a check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <tuple>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Per-layer metrics every traced run reports, in output order.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "service.compile_ms",
      "service.cache_hit_ratio",
      "service.cache_misses",
      "service.cache_evictions",
      "service.open_session_ms",
      "service.pull_blocks_ms",
      "service.session_next_block_us",
      "service.keyed_block_us.rayleigh",
      "service.keyed_block_us.rician",
      "service.keyed_block_us.twdp",
      "service.keyed_block_us.suzuki",
      "service.keyed_block_us.cascaded",
      "service.keyed_block_us.rayleigh_f32",
      "core.cursor_block_us.f64",
      "core.cursor_block_us.f32",
      "core.keyed_block_us",
      "core.plan_create_ms",
      "core.color_block_ns_per_sample.f64",
      "core.color_block_ns_per_sample.f32",
      "core.cursor_residual_ns_per_sample",
      "core.cursor_residual_ns_per_sample.f32",
      "doppler.design_ms.independent-block",
      "doppler.design_ms.windowed-overlap-add",
      "doppler.design_ms.overlap-save-fir",
      "doppler.ols_batch_fill_ns_per_sample.f64",
      "doppler.ols_batch_fill_ns_per_sample.f32",
      "doppler.branch_fill_ns_per_sample.independent-block",
      "doppler.branch_fill_ns_per_sample.windowed-overlap-add",
      "doppler.branch_fill_ns_per_sample.overlap-save-fir",
      "fft.pow2_transform_us",
      "fft.batched_transform_us_per_lane.f64",
      "fft.batched_transform_us_per_lane.f32",
      "random.planar_fill_ns_per_sample.f64",
      "random.planar_fill_ns_per_sample.f32",
      "numeric.gemm_planar_ns_per_sample.f64",
      "numeric.gemm_planar_ns_per_sample.f32",
      "numeric.eigen_ms",
      "metrics.tap_observe_ns_per_sample",
      "metrics.tap_publish_ms",
      "count.blocks",
      "count.samples",
      "count.sessions_opened",
      "metrics.tap_blocks",
      "trace.samples_per_s",
      "trace.sweep_ms",
  };
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "samples_per_s", "sweep_ms", "tenant_ready_ms", "setup_s",
      "peak_rss_mb"};
  return names;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload stream|serve|churn "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_unsigned(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(std::string("bad value for ") + flag + ": " + text);
  }
  return value;
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics,
                         const std::vector<std::string>& order) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Metric& m = metrics.at(order[i]);
    out << (i ? ", " : "") << '"' << order[i] << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << '}';
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// Span-derived per-layer metrics: the median duration of each timed
/// call the workload made.
void span_metrics(Report& report) {
  const Tracer& tracer = Tracer::instance();
  const std::vector<std::tuple<const char*, const char*, double, const char*>>
      calls = {
          {"service.compile_ms", "service.compile.miss", 1e3, "ms"},
          {"service.open_session_ms", "service.open_session", 1e3, "ms"},
          {"service.pull_blocks_ms", "service.pull_blocks", 1e3, "ms"},
          {"service.session_next_block_us", "service.session_next_block", 1e6,
           "us"},
          {"core.cursor_block_us.f64", "core.cursor_block.f64", 1e6, "us"},
          {"core.cursor_block_us.f32", "core.cursor_block.f32", 1e6, "us"},
      };
  for (const auto& [metric, span, scale, unit] : calls) {
    const std::vector<double> d = tracer.durations(span);
    if (!d.empty()) report.metrics[metric] = {median(d) * scale, unit};
  }
}

void write_spans(const std::filesystem::path& path) {
  const Tracer& tracer = Tracer::instance();
  std::ofstream out(path);
  out << "{\"self_time_s\": {";
  bool first = true;
  for (const auto& [name, times] : tracer.total_and_self()) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"total\": "
        << number(times.first) << ", \"self\": " << number(times.second)
        << '}';
    first = false;
  }
  out << "},\n\"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ",\n" : "") << "{\"id\": " << i
        << ", \"name\": " << json_string(spans[i].name)
        << ", \"start_ns\": " << spans[i].start_ns
        << ", \"end_ns\": " << spans[i].end_ns
        << ", \"parent\": " << spans[i].parent << '}';
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::filesystem::path out_dir = ".bench_results";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = parse_unsigned(value, "--seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_unsigned(value, "--seconds");
      if (s < 1 || s > 60) usage("--seconds must be in [1, 60]");
      config.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_unsigned(value, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      config.trace = t == 1;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (config.workload != "stream" && config.workload != "serve" &&
      config.workload != "churn") {
    usage("unknown workload " + config.workload);
  }
  if (config.trace) Tracer::instance().enable();

  Report report;
  try {
    if (config.workload == "stream") {
      run_stream(config, report);
    } else if (config.workload == "serve") {
      run_serve(config, report);
    } else {
      run_churn(config, report);
    }
    report.metrics["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
    for (const auto& [name, metric] : report.metrics) {
      report.info[name] = metric.value;
    }

    if (config.trace) {
      const std::map<std::string, Metric> e2e = std::move(report.metrics);
      report.metrics.clear();
      report.metrics["trace.samples_per_s"] = e2e.at("samples_per_s");
      report.metrics["trace.sweep_ms"] = e2e.at("sweep_ms");
      const double hits = report.info["service.cache_hits"];
      const double misses = report.info["service.cache_misses"];
      report.metrics["service.cache_hit_ratio"] = {
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
      for (const char* count :
           {"service.cache_misses", "service.cache_evictions", "count.blocks",
            "count.samples", "count.sessions_opened", "metrics.tap_blocks"}) {
        report.metrics[count] = {report.info[count], "count"};
      }
      span_metrics(report);
      run_probes(config, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }

  const std::vector<std::string>& order =
      config.trace ? per_layer_names() : end_to_end_names();
  for (const std::string& name : order) {
    if (report.metrics.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    report.check(std::isfinite(report.metrics[name].value),
                 "metric " + name + " is not finite");
  }
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  std::error_code ignored;
  std::filesystem::create_directories(out_dir, ignored);
  const std::string stem = config.workload + "-seed" +
                           std::to_string(config.seed);
  {
    std::ofstream out(out_dir / (stem + "-trace" +
                                 std::to_string(config.trace ? 1 : 0) +
                                 ".json"));
    out << "{\"workload\": " << json_string(config.workload)
        << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
        << ", \"correct\": " << (report.correct() ? "true" : "false")
        << ",\n\"metrics\": " << metrics_json(report.metrics, order)
        << ",\n\"info\": {";
    bool first = true;
    for (const auto& [name, value] : report.info) {
      out << (first ? "" : ", ") << json_string(name) << ": " << number(value);
      first = false;
    }
    out << "},\n\"check_failures\": [";
    for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
      out << (i ? ", " : "") << json_string(report.check_failures[i]);
    }
    out << "]}\n";
  }
  if (config.trace) write_spans(out_dir / (stem + "-spans.json"));

  for (const auto& [name, value] : report.info) {
    std::fprintf(stderr, "  %-48s %.6g\n", name.c_str(), value);
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics_json(report.metrics, order) << "}"
            << std::endl;
  return report.correct() ? 0 : 1;
}
