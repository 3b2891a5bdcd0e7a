// bench_e2e — the repository's end-to-end benchmark (see README.md here).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny]
//
// Workloads: offline_trace, service_small, service_durable, explore_4p10m.
// The last line of stdout is the JSON result; the host fingerprint and the
// spread of every timed series go to stderr. Exit 0 when every correctness
// gate held, 1 when one failed, 2 on a usage error, 3 on a build that must
// not be measured (not Release, or sanitized).
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload offline_trace|service_small|"
               "service_durable|explore_4p10m --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench_e2e;
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      std::string value;
      if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
        value = flag.substr(eq + 1);
        flag.resize(eq);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("missing value for " + flag);
      }
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        options.trace = value == "1";
      } else if (flag == "--scale" && (value == "full" || value == "tiny")) {
        options.scale = value;
      } else {
        throw std::invalid_argument("bad option " + flag + " " + value);
      }
    }
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    usage();
    return 2;
  }

  std::unique_ptr<Workload> workload;
  if (options.workload == "offline_trace") {
    workload = make_offline_trace(options);
  } else if (options.workload == "service_small") {
    workload = make_service(options, false);
  } else if (options.workload == "service_durable") {
    workload = make_service(options, true);
  } else if (options.workload == "explore_4p10m") {
    workload = make_explore(options);
  } else {
    usage();
    return 2;
  }
  try {
    return run(options, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
