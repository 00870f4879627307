/**
 * @file
 * Execution energy accounting from Table 1 constants plus routing-hop
 * energy.  The performance model reports event counts; this module turns
 * them into picojoules.
 */

#ifndef FPSA_ARCH_ENERGY_MODEL_HH
#define FPSA_ARCH_ENERGY_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "pe/pe_params.hh"
#include "routing/switch.hh"

namespace fpsa
{

/** Event counts of one execution (per sample or aggregate). */
struct EnergyEvents
{
    std::uint64_t peWindows = 0;     //!< PE sampling windows executed
    std::uint64_t smbAccesses = 0;   //!< SMB value reads+writes
    std::uint64_t clbCycles = 0;     //!< CLB active cycles
    std::uint64_t routedBitHops = 0; //!< bits x segments moved on wires
};

/** Energy decomposition in picojoules. */
struct EnergyBreakdown
{
    PicoJoules pe = 0.0;
    PicoJoules smb = 0.0;
    PicoJoules clb = 0.0;
    PicoJoules routing = 0.0;

    PicoJoules total() const { return pe + smb + clb + routing; }

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Convert event counts to energy under a technology library. */
EnergyBreakdown energyOf(const EnergyEvents &events, int io_bits,
                         const SwitchParams &switches,
                         const TechnologyLibrary &tech =
                             TechnologyLibrary::fpsa45());

} // namespace fpsa

#endif // FPSA_ARCH_ENERGY_MODEL_HH
