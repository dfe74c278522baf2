// Copyright 2026 The WWT Authors
//
// servebench: runs one serving workload and prints its metrics, one per
// line with units, then the one-line JSON result. Normally launched by
// run.py, which builds it first:
//
//   servebench --workload serial|routed-open|fresh-zipf --seed N
//              --seconds S --trace 0|1 --workdir DIR --shardd PATH
//              [--trace-out PATH] [--scale X] [--corpus-seed N]
//
// The run works in a fresh directory under --workdir (artifacts, worker
// sockets, the delta journal) and removes it before exiting. Exit 0 with
// a result line when the run completed (its "correct" field says whether
// every check passed); exit 1 with no result line when it could not run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          --workdir DIR --shardd PATH [--trace-out PATH]\n"
               "          [--scale X] [--corpus-seed N]\n",
               argv0);
  return 1;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  servebench::RunConfig config;
  std::string workdir, trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* v = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      ok = ParseU64(v, &config.seed);
    } else if (arg == "--seconds") {
      ok = ParseDouble(v, &config.seconds) && config.seconds > 0;
    } else if (arg == "--trace") {
      trace_flag = v;
      ok = trace_flag == "0" || trace_flag == "1";
      config.trace = trace_flag == "1";
    } else if (arg == "--scale") {
      ok = ParseDouble(v, &config.scale) && config.scale > 0;
    } else if (arg == "--corpus-seed") {
      ok = ParseU64(v, &config.corpus_seed);
    } else if (arg == "--workdir") {
      workdir = v;
    } else if (arg == "--shardd") {
      config.shardd = v;
    } else if (arg == "--trace-out") {
      config.trace_path = v;
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }
  if (config.workload.empty() || trace_flag.empty() || workdir.empty() ||
      config.shardd.empty()) {
    return Usage(argv[0]);
  }
  // Keep stdout for results: the program's info logs are dropped.
  wwt::SetLogLevel(wwt::LogLevel::kWarning);

  std::error_code ec;
  config.shardd = fs::absolute(config.shardd, ec).string();
  if (!config.trace_path.empty()) {
    config.trace_path = fs::absolute(config.trace_path, ec).string();
  }
  const fs::path run_dir = fs::absolute(workdir, ec) /
                           (config.workload + "-" + std::to_string(::getpid()));
  const fs::path home = fs::current_path();
  fs::remove_all(run_dir, ec);
  if (!fs::create_directories(run_dir, ec)) {
    std::fprintf(stderr, "servebench: cannot create %s\n", run_dir.c_str());
    return 1;
  }
  fs::current_path(run_dir);

  servebench::Report report;
  std::string error;
  const bool ran = servebench::RunWorkload(config, &report, &error);

  fs::current_path(home);
  fs::remove_all(run_dir, ec);
  if (!ran) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 1;
  }
  const std::vector<std::string>& names =
      config.trace ? servebench::PerLayerMetricNames()
                   : servebench::EndToEndMetricNames();
  for (const std::string& name : names) {
    if (!report.Has(name)) report.Fail("metric " + name + " not measured");
  }
  std::printf("workload %s, seed %llu, %.1f s%s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? ", traced" : "");
  std::fputs(report.Text(names).c_str(), stdout);
  std::printf("%s\n", report.Json(names).c_str());
  return 0;
}
