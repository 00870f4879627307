/**
 * @file
 * The whole-stack option/result structs.
 *
 * `fpsa::Pipeline` (pipeline.hh) takes a `CompileOptions`, exposes the
 * Fig. 5 stages individually with cached intermediate artifacts and a
 * non-throwing `Status` error channel, and assembles a `CompileResult`
 * (`Pipeline::result()`); `Pipeline::compile()` freezes the stages
 * into the `CompiledModel` artifact (runtime/compiled_model.hh) the
 * serving runtime executes.
 */

#ifndef FPSA_COMPILER_HH
#define FPSA_COMPILER_HH

#include <optional>

#include "mapper/allocation.hh"
#include "mapper/mapper.hh"
#include "nn/graph.hh"
#include "pnr/pnr_flow.hh"
#include "sim/energy_report.hh"
#include "sim/perf_model.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

/** Whole-stack compilation knobs. */
struct CompileOptions
{
    std::int64_t duplicationDegree = 64;
    SynthOptions synth;
    AllocationOptions allocation;
    MapperOptions mapper;

    /**
     * Run placement & routing on the generated netlist and use the
     * measured average net delay in the performance model (instead of
     * the calibrated 9.9 ns default).  Expensive for large models.
     */
    bool runPlaceAndRoute = false;
    PnrOptions pnr;

    FpsaPerfOptions perf;

    bool operator==(const CompileOptions &) const = default;
};

/** Everything the stack produces for one model. */
struct CompileResult
{
    SynthesisSummary synthesis;
    AllocationResult allocation;
    Netlist netlist;
    std::optional<PnrResult> pnr;
    PerfReport performance;
    EnergyReport energy;
};

} // namespace fpsa

#endif // FPSA_COMPILER_HH
