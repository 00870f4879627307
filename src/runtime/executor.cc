#include "runtime/executor.hh"

#include <mutex>
#include <utility>
#include <vector>

#include "nn/execute.hh"
#include "nn/plan.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

std::vector<StatusOr<Tensor>>
Executor::runBatch(const std::vector<const Tensor *> &inputs,
                   PlanTeam * /*team*/) const
{
    std::vector<StatusOr<Tensor>> outputs;
    outputs.reserve(inputs.size());
    for (const Tensor *input : inputs)
        outputs.push_back(run(*input));
    return outputs;
}

namespace
{

Status
checkInputShape(const CompiledModel &model, const Tensor &input)
{
    if (input.shape() != model.inputShape()) {
        return Status::error(StatusCode::InvalidArgument,
                             "input shape " +
                                 shapeToString(input.shape()) +
                                 " does not match the compiled model's " +
                                 shapeToString(model.inputShape()));
    }
    return Status();
}

/**
 * A mutex-guarded freelist of per-request scratch objects.  Steady
 * state never allocates: a context is created the first time the pool
 * runs dry (e.g. once per concurrently-serving worker) and returned
 * for reuse afterwards.
 */
template <typename T>
class ScratchPool
{
  public:
    template <typename Make>
    T
    acquire(Make make) const
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!free_.empty()) {
                T scratch = std::move(free_.back());
                free_.pop_back();
                return scratch;
            }
        }
        return make();
    }

    void
    release(T scratch) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(std::move(scratch));
    }

  private:
    mutable std::mutex mu_;
    mutable std::vector<T> free_;
};

/**
 * The arena-allocated im2col/GEMM data path (nn/plan.hh).  One plan
 * (with its packed weight panels) is shared by every worker; each
 * in-flight request borrows a pooled PlanContext, so serving performs
 * zero heap allocations beyond the output tensors.
 */
class PlannedExecutor final : public Executor
{
  public:
    PlannedExecutor(std::shared_ptr<const CompiledModel> model,
                    std::shared_ptr<const ExecutionPlan> plan)
        : model_(std::move(model)), plan_(std::move(plan))
    {
    }

    const char *name() const override { return "planned"; }

    ExecutionConfig
    info() const override
    {
        return ExecutionConfig{ExecutorKind::Planned,
                               plan_->precision(), plan_->kernelIsa()};
    }

    StatusOr<Tensor>
    run(const Tensor &input) const override
    {
        Status shape = checkInputShape(*model_, input);
        if (!shape.ok())
            return shape;
        Tensor out(model_->outputShape());
        PlanContext context = acquireContext();
        plan_->run(input.data(), out.data(), context);
        contexts_.release(std::move(context));
        return out;
    }

    std::vector<StatusOr<Tensor>>
    runBatch(const std::vector<const Tensor *> &inputs,
             PlanTeam *team) const override
    {
        // Per-request shape screening: bad requests get their own
        // Status and the valid remainder still rides one batched plan
        // execution (bit-identical per sample to single-sample runs).
        std::vector<StatusOr<Tensor>> outputs;
        outputs.reserve(inputs.size());
        std::vector<const float *> in_ptrs;
        std::vector<float *> out_ptrs;
        in_ptrs.reserve(inputs.size());
        out_ptrs.reserve(inputs.size());
        for (const Tensor *input : inputs) {
            Status shape = checkInputShape(*model_, *input);
            if (!shape.ok()) {
                outputs.push_back(std::move(shape));
                continue;
            }
            outputs.push_back(Tensor(model_->outputShape()));
            in_ptrs.push_back(input->data());
            out_ptrs.push_back(outputs.back().value().data());
        }
        if (!in_ptrs.empty()) {
            PlanContext context = acquireContext();
            context.setTeam(team);
            plan_->runBatch(in_ptrs.data(), out_ptrs.data(),
                            static_cast<int>(in_ptrs.size()), context);
            context.setTeam(nullptr);
            contexts_.release(std::move(context));
        }
        return outputs;
    }

  private:
    PlanContext
    acquireContext() const
    {
        return contexts_.acquire([this] { return plan_->makeContext(); });
    }

    std::shared_ptr<const CompiledModel> model_;
    std::shared_ptr<const ExecutionPlan> plan_;
    ScratchPool<PlanContext> contexts_;
};

/** Golden float kernels; the pure functions in runGraph are reentrant. */
class ReferenceExecutor final : public Executor
{
  public:
    explicit ReferenceExecutor(std::shared_ptr<const CompiledModel> model)
        : model_(std::move(model))
    {
    }

    const char *name() const override { return "reference"; }

    ExecutionConfig
    info() const override
    {
        return ExecutionConfig{ExecutorKind::Reference,
                               PrecisionMode::Fp32,
                               KernelIsa::Scalar};
    }

    StatusOr<Tensor>
    run(const Tensor &input) const override
    {
        Status shape = checkInputShape(*model_, input);
        if (!shape.ok())
            return shape;
        return runGraphFinal(model_->graph(), input);
    }

  private:
    std::shared_ptr<const CompiledModel> model_;
};

/**
 * Serves in the spike-count domain using the model's cached functional
 * lowering (calibrated once per CompiledModel): every request is
 * encoded to counts, run through the precompiled core-op schedule on a
 * pooled arena, and decoded -- the count-exact semantics of the PE,
 * with no per-request graph-shaped allocations.
 */
class SpikingExecutor final : public Executor
{
  public:
    SpikingExecutor(std::shared_ptr<const CompiledModel> model,
                    std::shared_ptr<const FunctionalSynthesis> synthesis)
        : model_(std::move(model)), synthesis_(std::move(synthesis)),
          plan_(*synthesis_)
    {
    }

    const char *name() const override { return "spiking"; }

    ExecutionConfig
    info() const override
    {
        return ExecutionConfig{ExecutorKind::Spiking,
                               PrecisionMode::Fp32,
                               KernelIsa::Scalar};
    }

    StatusOr<Tensor>
    run(const Tensor &input) const override
    {
        Status shape = checkInputShape(*model_, input);
        if (!shape.ok())
            return shape;

        Scratch scratch = scratch_.acquire([] { return Scratch{}; });
        encodeInputCounts(*synthesis_, input, scratch.inCounts);
        scratch.outCounts.resize(synthesis_->outputs.size());
        plan_.run(*synthesis_, scratch.inCounts.data(),
                  scratch.inCounts.size(), scratch.outCounts.data(),
                  scratch.arena);
        decodeOutputValues(*synthesis_, scratch.outCounts,
                           scratch.values);

        Tensor out(model_->outputShape());
        const std::size_t produced = scratch.values.size();
        if (out.numel() != static_cast<std::int64_t>(produced)) {
            scratch_.release(std::move(scratch));
            return Status::error(
                StatusCode::Internal,
                "spiking executor produced " +
                    std::to_string(produced) + " values for shape " +
                    shapeToString(model_->outputShape()));
        }
        for (std::int64_t i = 0; i < out.numel(); ++i)
            out[i] = static_cast<float>(
                scratch.values[static_cast<std::size_t>(i)]);
        scratch_.release(std::move(scratch));
        return out;
    }

  private:
    struct Scratch
    {
        std::vector<std::uint32_t> inCounts;
        std::vector<std::uint32_t> outCounts;
        std::vector<double> values;
        CoreOpArena arena;
    };

    std::shared_ptr<const CompiledModel> model_;
    std::shared_ptr<const FunctionalSynthesis> synthesis_;
    CoreOpPlan plan_;
    ScratchPool<Scratch> scratch_;
};

} // namespace

StatusOr<std::unique_ptr<Executor>>
makeExecutor(std::shared_ptr<const CompiledModel> model,
             const ExecutionConfig &config)
{
    fpsa_assert(model != nullptr, "makeExecutor: null model");
    switch (config.executor) {
      case ExecutorKind::Planned: {
        auto plan = model->executionPlan(config.precision,
                                         config.kernelIsa);
        if (!plan.ok())
            return plan.status();
        return std::unique_ptr<Executor>(new PlannedExecutor(
            std::move(model), std::move(plan).value()));
      }
      case ExecutorKind::Reference:
        return std::unique_ptr<Executor>(
            new ReferenceExecutor(std::move(model)));
      case ExecutorKind::Spiking: {
        auto synthesis = model->functionalSynthesis();
        if (!synthesis.ok())
            return synthesis.status();
        return std::unique_ptr<Executor>(new SpikingExecutor(
            std::move(model), std::move(synthesis).value()));
      }
    }
    return Status::error(StatusCode::InvalidArgument,
                         "unknown executor kind");
}

} // namespace fpsa
