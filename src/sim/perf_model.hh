/**
 * @file
 * System-level performance model: synthesis summary + allocation +
 * communication model -> throughput, latency, area, energy.
 *
 * Pipeline mechanics (Sections 4.1/5.2/7.1):
 *  - An allocated group executes its instances in `iterations` rounds
 *    of one sampling window each; the pipeline initiation interval is
 *    the slowest group's round count times the effective window time.
 *  - FPSA streams spike *trains*: a window advances one spike per
 *    effective bit time, the larger of the PE cycle (2.443 ns) and the
 *    routed per-bit wire delay -- communication slower than compute
 *    stretches the window (the ideal-vs-real gap of Fig. 6).
 *  - PRIME-style PEs run a whole VMM then transfer counts; on the
 *    shared bus they additionally contend with every other active PE.
 *  - Within one sample the layers overlap wavefront-style, so latency
 *    is one initiation interval plus a per-stage fill term.
 */

#ifndef FPSA_SIM_PERF_MODEL_HH
#define FPSA_SIM_PERF_MODEL_HH

#include "arch/energy_model.hh"
#include "baseline/fp_prime.hh"
#include "baseline/prime.hh"
#include "common/types.hh"
#include "mapper/allocation.hh"
#include "pe/pe_params.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

/** What the evaluation reports for one configuration. */
struct PerfReport
{
    double throughput = 0.0;        //!< samples per second
    NanoSeconds latency = 0.0;      //!< per-sample latency
    OpsPerSecond performance = 0.0; //!< model ops x throughput
    SquareMillimeters area = 0.0;   //!< blocks (routing stacked above)
    PicoJoules energyPerSample = 0.0;

    /** Fig. 7 quantities: per-PE-operation latency split. */
    NanoSeconds computePerPe = 0.0;
    NanoSeconds commPerPe = 0.0;

    std::int64_t pes = 0;
    std::int64_t duplicationDegree = 1;
    std::int64_t iterations = 1; //!< initiation interval in windows

    bool operator==(const PerfReport &) const = default;
};

/** FPSA evaluation knobs. */
struct FpsaPerfOptions
{
    int ioBits = 6;

    /**
     * Average routed per-bit wire delay.  The default reproduces the
     * paper's Fig. 7 (9.9 ns); pass a measured TimingReport average to
     * use your own PnR result, or 0 for the ideal (infinite-bandwidth)
     * bound.
     */
    NanoSeconds wireDelayPerBit = 9.9;

    bool operator==(const FpsaPerfOptions &) const = default;
};

/**
 * Modeled chip-to-chip interconnect for sharded serving: the fleet's
 * chips sit on a linear on-board link (hop distance = |chip index
 * difference|), and forwarding a cut activation tensor costs a fixed
 * per-hop latency plus the tensor's bytes over the link bandwidth.
 * This is the cluster analogue of the on-chip wire-delay term above:
 * it prices the activations a `ShardRouter` moves between pipeline
 * stages and shows up in per-request telemetry and `statsJson()`.
 */
struct InterconnectParams
{
    /** Per-hop switch + serialization latency. */
    NanoSeconds hopLatencyNs = 500.0;

    /** Link bandwidth in bytes per nanosecond (1.0 = 1 GB/s). */
    double bytesPerNs = 8.0;

    bool operator==(const InterconnectParams &) const = default;
};

/**
 * Modeled time to move `bytes` of activations `hops` chip-to-chip
 * hops: hops x hopLatencyNs + bytes / bytesPerNs.  Zero hops (a
 * co-resident consumer) still pays the bandwidth term once, modeling
 * the off-chip buffer crossing; zero bytes costs nothing.
 */
NanoSeconds interconnectTransferNs(const InterconnectParams &params,
                                   std::int64_t hops, std::int64_t bytes);

/** Evaluate FPSA on a synthesized model with a given allocation. */
PerfReport evaluateFpsa(const Graph &graph, const SynthesisSummary &summary,
                        const AllocationResult &allocation,
                        const FpsaPerfOptions &options = {},
                        const TechnologyLibrary &tech =
                            TechnologyLibrary::fpsa45());

/** Evaluate PRIME (shared memory bus) on the same workload. */
PerfReport evaluatePrime(const Graph &graph,
                         const SynthesisSummary &summary,
                         const AllocationResult &allocation,
                         const PrimeSystem &system = PrimeSystem{});

/** Evaluate FP-PRIME (PRIME PE on FPSA wires). */
PerfReport evaluateFpPrime(const Graph &graph,
                           const SynthesisSummary &summary,
                           const AllocationResult &allocation,
                           const FpPrimeSystem &system = FpPrimeSystem{});

/** Area of an allocation's blocks in mm^2 under a technology library. */
SquareMillimeters allocationArea(const AllocationResult &allocation,
                                 SquareMicrons pe_area,
                                 const TechnologyLibrary &tech =
                                     TechnologyLibrary::fpsa45());

} // namespace fpsa

#endif // FPSA_SIM_PERF_MODEL_HH
