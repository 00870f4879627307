/**
 * @file
 * Whole-stack benchmark program.  One workload per process:
 *
 *   perfbench --workload convnet --seed 7 --seconds 40 --trace 0
 *
 * Human-readable progress and every measured metric go to standard
 * output first; the last line is one JSON object {"correct",
 * "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
 * the end-to-end ones (tracing off); with --trace 1 they are the
 * per-layer ones from a traced run, which also reports its own
 * overhead and can write its spans with --trace-out <file>.  Errors
 * go to standard error with a non-zero exit and no result line.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "tensor/kernels.hh"
#include "workloads.hh"

namespace
{

// Must match BENCHMARK.json's "end_to_end" and "per_layer" lists.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "rss_mb",      "compile_s",  "chip_sps",
    "p50_ms",      "p90_ms",      "int8_p50_ms", "int8_p90_ms",
    "peak_rps",    "cpu_us"};

const std::vector<std::string> kPerLayer = {
    "pipeline.synthesize_ms",
    "pipeline.map_ms",
    "pipeline.pnr_ms",
    "pipeline.evaluate_ms",
    "pnr.place_ms",
    "pnr.route_ms",
    "pnr.route_iterations",
    "pnr.overused_segments",
    "pnr.wirelength",
    "pnr.hpwl",
    "mapper.blocks",
    "mapper.nets",
    "sim.latency_ns",
    "sim.energy_pj",
    "runtime.compiled_model.compile_ms",
    "runtime.compiled_model.plan_build_ms",
    "nn.plan.run_ms",
    "nn.plan.batch_ms_per_sample",
    "nn.plan.run_int8_ms",
    "nn.plan.other_ms",
    "nn.plan.other_int8_ms",
    "tensor.gemm_ms",
    "tensor.gemm_gflops",
    "tensor.im2col_ms",
    "tensor.gemm_int8_ms",
    "tensor.gemm_int8_gops",
    "runtime.load_ms",
    "runtime.submit_us",
    "runtime.engine.queue_p50_ms",
    "runtime.engine.queue_p90_ms",
    "runtime.engine.exec_p50_ms",
    "runtime.engine.batch_mean",
    "runtime.retries",
    "runtime.shed",
    "runtime.replica_skew",
    "runtime.interconnect_bytes",
    "loadgen.late_p99_ms",
    "loadgen.sent",
    "loadgen.completed",
    "trace.overhead_pct"};

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload convnet|fleet --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    perfbench::RunOptions options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                have_trace = true;
            } else if (flag == "--trace-out") {
                options.traceOut = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");
    if (!(options.seconds >= 1.0 && options.seconds <= 60.0))
        return usage("--seconds must be within 1..60");

    fpsa::setLogLevel(fpsa::LogLevel::Quiet);
    std::ostream &log = std::cout;
    log << "workload " << workload << ", seed " << options.seed << ", "
        << options.seconds << " s, trace " << options.trace
        << ", kernel isa "
        << fpsa::kernelIsaName(fpsa::kernelTable().isa) << ", "
        << std::thread::hardware_concurrency() << " hardware threads\n";
    try {
        perfbench::RunOutcome outcome;
        if (workload == "convnet")
            outcome = perfbench::runConvnet(options, log);
        else if (workload == "fleet")
            outcome = perfbench::runFleet(options, log);
        else
            return usage("unknown workload '" + workload + "'");
        std::cout << outcome.report.humanLines();
        std::cout << outcome.report.resultJson(
                         outcome.correct, outcome.attempted,
                         outcome.failed,
                         options.trace ? kPerLayer : kEndToEnd)
                  << std::endl;
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
