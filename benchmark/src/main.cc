// aplus_bench: the repository benchmark. One workload per process:
//
//   aplus_bench --workload=<recs_wire|fraud_adhoc|ingest_mixed|segment_cold>
//               --seed=<n> [--seconds=<s>] [--trace=<file>] [--out=<file>]
//               [--workdir=<dir>] [--smoke] [--corrupt-oracle] [--git-sha=<sha>]
//
// The seed drives dataset generation and the request stream. Every
// metric is printed as `name value unit` and written, with the run
// context, to the result JSON (--out, default
// <workdir>/result_<workload>_<seed>.json). With --trace the run records
// spans around the calls it makes into each layer, writes them as a
// Chrome trace and reports per-layer metrics from them. The exit code is
// 0 when every answer was correct, 3 when a correctness check or the
// set-up failed, and 2 on a usage error or when the result cannot be
// written.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "query/intersect_kernels.h"
#include "workload.h"

using namespace aplus;         // NOLINT: benchmark brevity
using namespace aplus::bench;  // NOLINT

namespace {

constexpr int kExitIncorrect = 3;
constexpr int kExitUsage = 2;

// The unit a span or sample name carries: the `_s`, `_ms` or `_us`
// suffix of its first dot-separated component that has one, as in
// `index.ddl_s.VPt` or `core.execute_us.mr2`.
std::string UnitOf(const std::string& name) {
  size_t begin = 0;
  while (begin <= name.size()) {
    size_t end = name.find('.', begin);
    if (end == std::string::npos) end = name.size();
    std::string part = name.substr(begin, end - begin);
    for (const char* unit : {"us", "ms", "s"}) {
      std::string suffix = std::string("_") + unit;
      if (part.size() > suffix.size() &&
          part.compare(part.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return unit;
      }
    }
    begin = end + 1;
  }
  return "us";
}

// Per-layer metrics from the recorded spans and samples. Set-up spans
// (unit s) report the median over the set-up repetitions; request-path
// spans and samples report their p50 and p99, and millisecond samples
// (the generators' lateness) also their maximum.
void RecordLayerMetrics(MetricTable* metrics) {
  for (const auto& [name, micros] : tracer::Durations()) {
    if (UnitOf(name) == "s") {
      metrics->Set(name, micros.Percentile(50) * 1e-6, "s");
    } else {
      metrics->SetPercentiles(name, micros, "us");
    }
  }
  for (const auto& [name, values] : tracer::Values()) {
    std::string unit = UnitOf(name);
    metrics->SetPercentiles(name, values, unit, /*with_max=*/unit == "ms");
  }
  for (const auto& [name, self] : tracer::SelfTimes()) {
    metrics->Set("trace.self_ms." + name, self.total_us * 1e-3, "ms");
  }
  for (const char* p : {".p50", ".p99"}) {
    std::string prepare = std::string("core.prepare_us") + p;
    std::string parse = std::string("query.parse_us") + p;
    if (metrics->Has(prepare) && metrics->Has(parse)) {
      metrics->Set(std::string("optimizer.plan_us") + p, metrics->Get(prepare) - metrics->Get(parse),
                   "us");
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool WriteResult(const std::string& path, const RunConfig& config, const RunResult& result,
                 bool correct) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"trace\": %s,\n",
               JsonString(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
               config.trace ? "true" : "false");
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  std::fprintf(f, "  \"context\": {");
  bool first = true;
  for (const auto& [key, value] : result.context) {
    std::fprintf(f, "%s\n    %s: %s", first ? "" : ",", JsonString(key).c_str(),
                 JsonString(value).c_str());
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"metrics\": %s\n}\n", result.metrics.ToJson().c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string trace_path;
  std::string out_path;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      config.workload = v;
    } else if (const char* v = value("--seed=")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      config.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (const char* v = value("--out=")) {
      out_path = v;
    } else if (const char* v = value("--workdir=")) {
      config.workdir = v;
    } else if (const char* v = value("--git-sha=")) {
      git_sha = v;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--corrupt-oracle") {
      config.corrupt_oracle = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return kExitUsage;
    }
  }
  void (*run)(const RunConfig&, RunResult*) = nullptr;
  if (config.workload == "recs_wire") run = RunRecsWire;
  if (config.workload == "fraud_adhoc") run = RunFraudAdhoc;
  if (config.workload == "ingest_mixed") run = RunIngestMixed;
  if (config.workload == "segment_cold") run = RunSegmentCold;
  if (run == nullptr || config.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: aplus_bench --workload=<recs_wire|fraud_adhoc|ingest_mixed|"
                 "segment_cold> --seed=<n> [--seconds=<s>] [--trace=<file>] [--out=<file>] "
                 "[--workdir=<dir>] [--smoke] [--corrupt-oracle]\n");
    return kExitUsage;
  }
  if (config.smoke) config.seconds = 1.0;
  config.trace = !trace_path.empty();
  ::mkdir(config.workdir.c_str(), 0755);
  if (out_path.empty()) {
    out_path = config.workdir + "/result_" + config.workload + "_" +
               std::to_string(config.seed) + (config.trace ? "_trace" : "") + ".json";
  }
  tracer::SetEnabled(config.trace);

  RunResult result;
  // Every thread of the run, the engine's and the server's included,
  // shares one CPU with the speed probe. Spread over several vCPUs of a
  // shared host, a request's time was mostly the wake-up latency of idle
  // vCPUs, which swung p99 by 2x between runs.
  result.AddContext("cpu", PinToOneCpu());
  result.context["workload"] = config.workload;
  result.context["git_sha"] = git_sha;
  result.context["simd"] = simd::ToString(simd::ActiveLevel());
  result.AddContext("seed", static_cast<double>(config.seed));
  result.AddContext("nproc", std::thread::hardware_concurrency());
  result.AddContext("phase_seconds", config.seconds);
  result.AddContext("setup_reps", kSetupReps);
  result.AddContext("smoke", config.smoke ? 1 : 0);

  run(config, &result);
  tracer::SetEnabled(false);

  result.metrics.Set("error_rate",
                     result.attempted > 0
                         ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                         : 1.0,
                     "ratio");
  if (config.trace) {
    RecordLayerMetrics(&result.metrics);
    if (!tracer::WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
    }
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  result.metrics.Print();
  if (!WriteResult(out_path, config, result, correct)) {
    std::fprintf(stderr, "cannot write result %s\n", out_path.c_str());
    return kExitUsage;
  }
  std::printf("RESULT correct=%s attempted=%llu failed=%llu file=%s\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), out_path.c_str());
  return correct ? 0 : kExitIncorrect;
}
