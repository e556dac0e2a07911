/// \file main.cpp
/// stepbench --workload NAME --seed N --seconds S --trace 0|1
///           --expected expected.json --scratch DIR
///
/// Runs one workload and prints two JSON lines: a detail document, then
/// the result {"correct", "attempted", "failed", "metrics"}. With --trace 0
/// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
/// Exits 1 on a usage error or a failure before any measurement.

#include <cstdio>
#include <exception>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace bl = bookleaf;

int main(int argc, char** argv) {
    try {
        const bl::util::Cli cli(argc, argv);
        for (const char* key : {"workload", "seed", "seconds", "trace", "expected", "scratch"})
            bl::util::require(cli.has(key), std::string("stepbench: --") + key + " is required");
        const auto& w = stepbench::workload(cli.get("workload", ""));
        const auto seed = static_cast<std::uint64_t>(std::stoull(cli.get("seed", "0")));
        const double seconds = cli.get_real("seconds", 10.0);
        const bool trace = cli.get_int("trace", 0) != 0;
        const auto base = cli.get("scratch", "");
        const auto scratch =
            base + "/" + w.name + "-" + std::to_string(static_cast<long>(getpid()));

        const auto out =
            trace ? stepbench::run_traced(w, seed, seconds, scratch,
                                          base + "/trace-" + w.name + ".json")
                  : stepbench::run_timed(w, seed, seconds, scratch,
                                         stepbench::load_expected(cli.get("expected", ""), w.name));
        stepbench::clear_scratch(scratch);

        auto detail = out.detail;
        detail["workload"] = w.name;
        detail["seed"] = static_cast<long long>(seed);
        detail["trace"] = trace;
        auto errors = bl::obs::Json::array();
        for (const auto& e : out.errors) errors.push_back(e);
        detail["errors"] = std::move(errors);

        auto result = bl::obs::Json::object();
        result["correct"] = out.failed == 0 && !out.metrics.empty();
        result["attempted"] = out.attempted;
        result["failed"] = out.failed;
        auto& metrics = result["metrics"];
        metrics = bl::obs::Json::object();
        for (const auto& m : out.metrics) {
            auto& entry = metrics[m.name];
            entry = bl::obs::Json::object();
            entry["value"] = m.value;
            entry["unit"] = m.unit;
        }
        std::printf("%s\n%s\n", detail.dump().c_str(), result.dump().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "stepbench: error: %s\n", e.what());
        return 1;
    }
}
