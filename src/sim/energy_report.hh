/**
 * @file
 * Per-sample energy reporting for allocated FPSA configurations,
 * decomposed by component family (PE / SMB / CLB / routing).
 */

#ifndef FPSA_SIM_ENERGY_REPORT_HH
#define FPSA_SIM_ENERGY_REPORT_HH

#include "arch/energy_model.hh"
#include "mapper/allocation.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

/** Energy summary of one sample's execution. */
struct EnergyReport
{
    EnergyBreakdown breakdown;

    PicoJoules perSample() const { return breakdown.total(); }

    /** Average power at a given sample rate. */
    double
    wattsAt(double samples_per_second) const
    {
        return perSample() * 1e-12 * samples_per_second;
    }

    bool operator==(const EnergyReport &) const = default;
};

/** Event counts of one sample on an allocated FPSA configuration. */
EnergyEvents fpsaEnergyEvents(const SynthesisSummary &summary,
                              const AllocationResult &allocation,
                              int io_bits,
                              NanoSeconds wire_delay_per_bit);

/** Full per-sample energy report. */
EnergyReport fpsaEnergyReport(const SynthesisSummary &summary,
                              const AllocationResult &allocation,
                              int io_bits = 6,
                              NanoSeconds wire_delay_per_bit = 9.9,
                              const TechnologyLibrary &tech =
                                  TechnologyLibrary::fpsa45());

} // namespace fpsa

#endif // FPSA_SIM_ENERGY_REPORT_HH
