/**
 * @file
 * Execution backends for `fpsa::Engine`: how a `CompiledModel` turns an
 * input tensor into an output tensor.
 *
 * The engine is backend-agnostic behind the `Executor` interface:
 *
 *  - `Planned` (the default) serves through a pre-compiled
 *    `ExecutionPlan` (nn/plan.hh): liveness-allocated arena, packed
 *    im2col/GEMM kernels, zero per-request heap allocations on the
 *    plan itself, and a true batched path (`runBatch`) that executes a
 *    whole engine batch as one multi-column GEMM per layer.  Supports
 *    every op the graph layer knows.
 *  - `Reference` runs the golden float kernels (`runGraph`), the naive
 *    "CPU fallback" ground truth the planned path is validated
 *    against.  Supports every op; allocates per node per request.
 *  - `Spiking` serves requests in the PE's exact spike-count domain
 *    (encode -> core-ops -> decode, src/spike/ codec semantics) using
 *    the model's cached functional lowering -- the calibration runs
 *    once per `CompiledModel`, not once per executor.  Limited to the
 *    functional-synthesis op family (MLP/LeNet); outputs are the
 *    quantized values the hardware would produce.
 *
 * Implementations are immutable after construction and `run()` /
 * `runBatch()` are `const` and thread-safe: one executor instance
 * serves every engine worker concurrently (mutable per-request scratch
 * is pooled internally and reused, never shared across live calls).
 */

#ifndef FPSA_RUNTIME_EXECUTOR_HH
#define FPSA_RUNTIME_EXECUTOR_HH

#include <memory>
#include <vector>

#include "common/status.hh"
#include "runtime/compiled_model.hh"
#include "nn/team.hh"
#include "runtime/execution_config.hh"
#include "tensor/tensor.hh"

namespace fpsa
{

/** A serving backend: maps input samples to output tensors. */
class Executor
{
  public:
    virtual ~Executor() = default;

    virtual const char *name() const = 0;

    /**
     * The resolved config this backend actually runs: never `Auto`,
     * and precision/ISA reflect the bound execution plan (`Reference`
     * and `Spiking` report fp32/scalar -- they have no vector or
     * quantized variant).  This is what per-tenant stats surface.
     */
    virtual ExecutionConfig info() const = 0;

    /**
     * Execute one sample.  Thread-safe; a shape mismatch or an internal
     * failure comes back as a Status (requests must never kill the
     * serving process).
     */
    virtual StatusOr<Tensor> run(const Tensor &input) const = 0;

    /**
     * Execute a batch; element i of the result answers `*inputs[i]`,
     * each with its own per-request Status (one bad shape never fails
     * its batch-mates).  The base implementation loops `run`; the
     * planned backend overrides it with true batched kernels that are
     * bit-identical per sample to the single-sample path, and splits
     * its large layers across `team` when one is given (outputs stay
     * bit-identical; nn/team.hh).  The other backends ignore `team`.
     */
    virtual std::vector<StatusOr<Tensor>> runBatch(
        const std::vector<const Tensor *> &inputs, PlanTeam *team) const;
};

/**
 * Build a backend for a compiled model.  The model handle is retained
 * for the executor's lifetime.  `Spiking` returns `InvalidArgument`
 * when the model's graph is outside the functional-synthesis family;
 * `config.precision`/`config.kernelIsa` select the planned backend's
 * data path (ignored by the other two, which report fp32/scalar).
 */
StatusOr<std::unique_ptr<Executor>> makeExecutor(
    std::shared_ptr<const CompiledModel> model,
    const ExecutionConfig &config);

} // namespace fpsa

#endif // FPSA_RUNTIME_EXECUTOR_HH
