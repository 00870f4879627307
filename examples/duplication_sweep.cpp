/**
 * @file
 * Design-space sweep via the staged `Pipeline` API: evaluate VGG16 at N
 * duplication degrees while synthesizing only once.
 *
 * Changing the duplication degree scopes to the mapping stage, so the
 * pipeline invalidates map -> evaluate and reuses the cached synthesis;
 * a fresh one-shot compile (a new `Pipeline` per point) re-runs the
 * whole stack.  The example runs the sweep both ways and reports the
 * measured recompile-time win.
 *
 *   $ ./duplication_sweep
 */

#include <algorithm>
#include <chrono>
#include <iostream>

#include "fpsa.hh"

using namespace fpsa;

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    const std::vector<std::int64_t> degrees{1, 4, 16, 64, 256};
    Graph model = buildModel(ModelId::Vgg16);

    // -- staged: synthesize once, re-run mapping/evaluation per point --
    Pipeline pipeline(model);
    Table t({"Dup", "PEs", "Area (mm^2)", "Throughput", "Latency (us)"});
    for (std::int64_t degree : degrees) {
        pipeline.setDuplicationDegree(degree);
        auto eval = pipeline.evaluate();
        if (!eval.ok()) {
            std::cerr << "degree " << degree << ": "
                      << eval.status().toString() << "\n";
            continue;
        }
        const PerfReport &r = (*eval)->performance;
        t.addRow({std::to_string(degree), std::to_string(r.pes),
                  fmtDouble(r.area, 2), fmtEng(r.throughput),
                  fmtDouble(r.latency / 1000.0, 1)});
    }
    t.print(std::cout);

    const StageStats &synth = pipeline.stats(Stage::Synthesize);
    const StageStats &map = pipeline.stats(Stage::Map);
    std::cout << "\nstage reuse: synthesize ran " << synth.runs
              << "x (served " << synth.cacheHits
              << " requests from cache), map ran " << map.runs << "x for "
              << degrees.size() << " sweep points\n";

    // -- recompile-time comparison, best of `repeats` to damp noise --
    // The staged sweep skips re-synthesis and the one-shot compile's
    // per-call artifact assembly; both effects are milliseconds, so a
    // single run sits at the timer's noise floor.
    const int repeats = 5;
    double staged_ms = 1e300, oneshot_ms = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
        Pipeline timed(model);
        const auto staged_start = Clock::now();
        for (std::int64_t degree : degrees) {
            timed.setDuplicationDegree(degree);
            auto eval = timed.evaluate();
            (void)eval;
        }
        staged_ms = std::min(staged_ms, millisSince(staged_start));

        const auto oneshot_start = Clock::now();
        for (std::int64_t degree : degrees) {
            CompileOptions options;
            options.duplicationDegree = degree;
            // A fresh pipeline per point: nothing carries over, so the
            // whole stack re-runs.
            auto r = Pipeline(model, options).result();
            (void)r;
        }
        oneshot_ms = std::min(oneshot_ms, millisSince(oneshot_start));
    }

    std::cout << "\nsweep wall clock (best of " << repeats
              << "): staged pipeline " << fmtDouble(staged_ms, 2)
              << " ms vs one-shot facade " << fmtDouble(oneshot_ms, 2)
              << " ms (" << fmtDouble(oneshot_ms / staged_ms, 2)
              << "x win)\n";

    // Machine-readable record of the last configuration + timings.
    std::cout << "\npipeline report (last sweep point):\n"
              << pipeline.report() << "\n";
    return 0;
}
