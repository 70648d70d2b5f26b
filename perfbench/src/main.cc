/**
 * @file
 * smash_perfbench — one run of one workload of the served-stack
 * benchmark (perfbench/run.py builds and drives it).
 *
 *   smash_perfbench --workload rpc-small|bulk-sharded|update-mix
 *                   --seed N --seconds S --trace 0|1
 *                   [--work-dir DIR] [--break-oracle]
 *
 * Prints an "env" line (nproc, NUMA nodes, active ISA), a
 * "requests" line (attempted, ok, failed by status) and, last, the
 * result object {correct, attempted, failed, metrics}: the
 * end-to-end metrics untraced, the per-layer metrics traced.
 * Exits 1 when an answer was wrong, 2 on bad usage or a pinned
 * environment variable.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Variables that change what the benchmark measures; a run with
 *  any of them set is not comparable with one without. */
const char* const kPinnedEnv[] = {
    "SMASH_FORCE_ISA", "SMASH_TILE",       "SMASH_TILE_COLS",
    "SMASH_NET_FAULTS", "SMASH_TRACE",     "SMASH_BENCH_SCALE",
};

int
usage()
{
    std::cerr << "usage: smash_perfbench --workload "
                 "rpc-small|bulk-sharded|update-mix --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--break-oracle]\n";
    return 2;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Wrong answers — the failures that make a run incorrect rather
 *  than merely unsuccessful. */
bool
wrongAnswer(const std::string& why)
{
    return why == "mismatch" || why == "unverifiable" ||
        why.rfind("probe_", 0) == 0 || why.rfind("ladder_", 0) == 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds" && has_value) {
            o.seconds = std::atof(argv[++i]);
            have_seconds = true;
        } else if (arg == "--trace" && has_value) {
            o.trace = std::strcmp(argv[++i], "1") == 0;
            have_trace = true;
        } else if (arg == "--work-dir" && has_value) {
            o.workDir = argv[++i];
        } else if (arg == "--break-oracle") {
            o.breakOracle = true;
        } else {
            return usage();
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds ||
        !have_trace || !(o.seconds > 0))
        return usage();
    for (const char* name : kPinnedEnv)
        if (std::getenv(name)) {
            std::cerr << "refusing to run: " << name
                      << " is set and would change what is measured\n";
            return 2;
        }

    std::error_code ec;
    std::filesystem::create_directories(o.workDir, ec);
    WorkloadOutput out;
    try {
        if (o.workload == "rpc-small")
            runRpcSmall(o, out);
        else if (o.workload == "bulk-sharded")
            runBulkSharded(o, out);
        else if (o.workload == "update-mix")
            runUpdateMix(o, out);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    const std::vector<Metric>& metrics =
        o.trace ? out.perLayer : out.endToEnd;
    for (const Metric& m : metrics)
        if (!std::isfinite(m.value)) {
            std::cerr << "perfbench: metric " << m.name
                      << " is not finite\n";
            return 1;
        }
    if (o.trace)
        out.spans.writeChromeTrace(o.workDir + "/trace-" + o.workload +
                                   ".json");

    bool correct = true;
    std::cout << "{\"env\": " << envJson() << "}\n";
    std::cout << "{\"requests\": {\"attempted\": "
              << out.tally.attempted()
              << ", \"ok\": " << out.tally.okCount()
              << ", \"failed\": {";
    const char* sep = "";
    for (const auto& [why, n] : out.tally.failedBy()) {
        std::cout << sep << "\"" << why << "\": " << n;
        sep = ", ";
        if (wrongAnswer(why))
            correct = false;
    }
    std::cout << "}}}\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.tally.attempted()
              << ", \"failed\": " << out.tally.failedCount()
              << ", \"metrics\": {";
    sep = "";
    for (const Metric& m : metrics) {
        std::cout << sep << "\"" << m.name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
