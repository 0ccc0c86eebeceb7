// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --trace-out FILE [--source-id ID]
//
// Workloads: batch_generated, serve_live (see README.md beside this
// file). The seed makes the inputs; the program only ever sees the
// generated inputs. Prints progress on stderr and, as
// its last stdout line, one JSON object with the checked operations, the
// measured values and a provenance block; run.py turns that into the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "stats/kernels/dispatch.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --trace-out FILE [--source-id ID]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") config.seconds = std::atof(value);
    else if (flag == "--trace") config.trace = std::strcmp(value, "1") == 0;
    else if (flag == "--work-dir") config.work_dir = value;
    else if (flag == "--trace-out") config.trace_path = value;
    else if (flag == "--source-id") source_id = value;
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || config.work_dir.empty() || config.trace_path.empty() ||
      config.seconds <= 0.0)
    return usage(argv[0]);
  config.nproc = std::max(1u, std::thread::hardware_concurrency());

  // Spill shards of the pipeline's cache-off path go to the temp
  // directory; keep them inside the work directory.
  std::filesystem::create_directories(config.work_dir);
  setenv("TMPDIR", config.work_dir.c_str(), 1);

  perfbench::Outcome outcome;
  outcome.info("workload", config.workload);
  outcome.info("seed", static_cast<double>(config.seed));
  outcome.info("trace", config.trace ? 1.0 : 0.0);
  outcome.info("nproc", static_cast<double>(config.nproc));
  outcome.info("kernel_tier",
               std::string(cloudlens::stats::kernels::to_string(
                   cloudlens::stats::kernels::active().tier)));
  outcome.info("source_id", source_id);
  try {
    if (config.workload == "batch_generated") {
      perfbench::run_batch_generated(config, outcome);
    } else if (config.workload == "serve_live") {
      perfbench::run_serve_live(config, outcome);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", outcome.to_json().c_str());
  return 0;
}
