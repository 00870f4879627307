/**
 * @file
 * `fpsa::ExecutionConfig`: the one knob bundle that says how a model
 * executes -- which backend (`ExecutorKind`), at what numeric precision
 * (`PrecisionMode`), on which kernel variant (`KernelIsa`).
 *
 * It is chosen in one place: `TenantOptions::execution` when a model is
 * loaded into an `Engine` or `ClusterEngine` (default Planned / Fp32 /
 * Auto).  A `CompiledModel` carries no execution config of its own, so
 * one artifact serves an fp32 tenant and an int8 tenant side by side,
 * and a sharded replica's stages run exactly as a whole-model replica
 * would.  `Executor::info()` reports the *resolved* values (never
 * `Auto`) that `statsJson()` surfaces per tenant.
 *
 * Precision and ISA only affect the `Planned` backend -- `Reference`
 * is the fp32 golden oracle by definition and `Spiking` executes in the
 * count domain; both report themselves as fp32/scalar.
 */

#ifndef FPSA_RUNTIME_EXECUTION_CONFIG_HH
#define FPSA_RUNTIME_EXECUTION_CONFIG_HH

#include <string>

#include "tensor/kernels.hh"

namespace fpsa
{

/** Selectable execution backend. */
enum class ExecutorKind
{
    Planned,   //!< arena + im2col/GEMM execution plan (every op)
    Reference, //!< golden naive float kernels (every op)
    Spiking,   //!< spike-count domain via functional synthesis
};

const char *executorKindName(ExecutorKind kind);

/** Parse "planned"/"reference"/"spiking" (case-insensitive). */
bool parseExecutorKind(const std::string &name, ExecutorKind &out);

/** How a model executes: backend + precision + kernel variant. */
struct ExecutionConfig
{
    ExecutorKind executor = ExecutorKind::Planned;
    PrecisionMode precision = PrecisionMode::Fp32;
    KernelIsa kernelIsa = KernelIsa::Auto;

    bool operator==(const ExecutionConfig &) const = default;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_EXECUTION_CONFIG_HH
