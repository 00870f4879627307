/**
 * @file
 * `fpsa::CompiledModel`: the frozen, self-contained artifact the
 * compile half of the stack hands to the serving half.
 *
 * The FPSA paper's software stack ends at compilation (Fig. 5); this
 * type is the deployment boundary that turns it into a servable
 * system, the way reconfigurable-RRAM inference runtimes separate a
 * compiled artifact from a concurrent execution engine.  A
 * `CompiledModel` stores only the inputs of that stack -- the
 * computational graph with materialized weights, the `CompileOptions`,
 * the placement & routing timing, and the `ExecutionConfig` stamp --
 * and carries the three derived values serving reads: the modeled
 * per-sample performance and energy, and the chip-resource demand
 * admission control budgets.  It never changes after construction, so
 * any number of engines and threads can share one instance without
 * synchronization.
 *
 * Synthesis, mapping and the performance model are deterministic
 * functions of the graph and options; only placement & routing is a
 * search.  So an artifact document holds just the stored inputs, and
 * loading one re-derives everything else through the same `Pipeline`
 * stages `compile()` ran, with the saved PnR timing standing in for the
 * search:
 *
 *     Pipeline p(model, options);
 *     auto compiled = p.compile();            // terminal pipeline stage
 *     compiled->save("lenet.fpsa.json");      // compile once...
 *
 *     auto loaded = CompiledModel::load("lenet.fpsa.json");
 *     auto engine = Engine::create(
 *         std::make_shared<CompiledModel>(std::move(loaded).value()));
 *
 * ...serve many, in another process, without recompiling.  Weight
 * floats are written with round-trip precision, so a loaded model's
 * inference outputs -- and its derived values -- are bit-identical to
 * the saved one's.
 *
 * The document is version 4.  Version 3 documents, which also carried
 * every derived section, still load: their derived sections are
 * ignored and recomputed.  `load()` reports corrupt or incompatible
 * files -- including option values out of range and numbers that do
 * not fit their field -- as `StatusCode::InvalidArgument`; it does not
 * guard against adversarial files that encode geometrically impossible
 * layer shapes, which still fail loudly in shape inference.
 *
 * Format scale: weights are stored as plain JSON numbers, sized for
 * the MLP/LeNet-class models the serving runtime executes numerically
 * (~15 bytes/weight on disk, more as a parse tree).  Zoo-scale graphs
 * (VGG16's 138M parameters) need a packed binary weight section
 * before this format is economical -- a versioned extension, not a
 * blocker baked into the schema.
 */

#ifndef FPSA_RUNTIME_COMPILED_MODEL_HH
#define FPSA_RUNTIME_COMPILED_MODEL_HH

#include <memory>
#include <optional>
#include <string>

#include "common/status.hh"
#include "compiler.hh"
#include "runtime/execution_config.hh"

namespace fpsa
{

class ExecutionPlan;
class Pipeline;
struct EvalArtifact;
struct FunctionalSynthesis;
struct MapArtifact;

/** PnR-derived timing carried by a compiled artifact. */
struct CompiledTiming
{
    NanoSeconds avgNetDelay = 0.0; //!< per-bit wire delay (perf model)
    NanoSeconds maxNetDelay = 0.0;
    bool routed = false;           //!< congestion-free full route
    double placementHpwl = 0.0;

    bool operator==(const CompiledTiming &) const = default;
};

/** The immutable compile-time bundle a serving engine executes. */
class CompiledModel
{
  public:
    /**
     * What a compiled model stores, and all its document holds.  Every
     * other value is a deterministic function of these and is derived
     * through the `Pipeline` stages.
     */
    struct Artifacts
    {
        std::shared_ptr<const Graph> graph; //!< weights materialized
        CompileOptions options;             //!< PnR knobs are not stored

        /**
         * The placement & routing outcome: present exactly when
         * `options.runPlaceAndRoute` is set.  Its `avgNetDelay` is the
         * wire delay the performance model uses.
         */
        std::optional<CompiledTiming> timing;

        /**
         * How this model is meant to execute (backend, precision,
         * kernel ISA), stamped by `Pipeline::compile(ExecutionConfig)`.
         * Engines use it as the model's default; tenants can still
         * override at loadModel time.
         */
        ExecutionConfig execution;
    };

    /**
     * Derive a compiled model from its stored inputs: a fresh
     * `Pipeline` runs synthesis, mapping and evaluation -- never
     * placement & routing, whose stored `timing` stands in for it --
     * and `compile()` freezes the result.  Stage failures come back as
     * their Status: out-of-range options and graphs without correctly
     * shaped, materialized conv/fc weights are `InvalidArgument`, and
     * so is `timing` present without `runPlaceAndRoute` or the
     * reverse.
     */
    static StatusOr<CompiledModel> fromArtifacts(Artifacts artifacts);

    const Graph &graph() const { return *a_.graph; }
    const CompileOptions &options() const { return a_.options; }
    const std::optional<CompiledTiming> &timing() const { return a_.timing; }

    /** The execution config stamped at compile time. */
    const ExecutionConfig &executionConfig() const
    {
        return a_.execution;
    }

    // ------------------------------------- derived, fixed at construction

    /** Modeled per-sample performance, attached to every response. */
    const PerfReport &performance() const { return performance_; }

    /** Modeled per-sample energy breakdown. */
    const EnergyReport &energy() const { return energy_; }

    /** Chip-resource footprint used for multi-tenant admission. */
    const ResourceDemand &resourceDemand() const { return demand_; }

    /** Per-sample shape of the model's input node. */
    const Shape &inputShape() const;

    /** Shape of the final node's output. */
    const Shape &outputShape() const;

    // ----------------------------------------- derived lazily, cached

    /**
     * The model's `ExecutionPlan` (nn/plan.hh) for the stamped
     * execution config: built lazily on first use, then shared --
     * every planned executor (and every engine worker behind it)
     * serves off one plan and one set of packed weight panels.  Copies
     * of this CompiledModel share the cache.
     */
    StatusOr<std::shared_ptr<const ExecutionPlan>> executionPlan() const;

    /**
     * The plan for an explicit (precision, kernel ISA) -- what tenant
     * overrides resolve through.  Plans are cached per (precision,
     * resolved ISA) pair, so two tenants asking for the same combo
     * share packed (and quantized) weights.
     */
    StatusOr<std::shared_ptr<const ExecutionPlan>> executionPlan(
        PrecisionMode precision, KernelIsa kernelIsa) const;

    /**
     * The model's functional lowering for the spiking backend,
     * calibrated on a deterministic probe input.  Computed once per
     * artifact and cached, so loading a model under several executors
     * or tenants never re-runs the (expensive) calibration.
     * `InvalidArgument` when the graph is outside the
     * functional-synthesis family.
     */
    StatusOr<std::shared_ptr<const FunctionalSynthesis>>
    functionalSynthesis() const;

    // ---------------------------------------------------- serialization

    /** The versioned JSON document (see file comment). */
    std::string toJson() const;

    /**
     * Parse a document produced by toJson() (version 4, or version 3
     * with its derived sections ignored) and re-derive the rest through
     * fromArtifacts().
     */
    static StatusOr<CompiledModel> fromJson(const std::string &text);

    /** Write toJson() to a file. */
    Status save(const std::string &path) const;

    /** Read + parse a saved artifact. */
    static StatusOr<CompiledModel> load(const std::string &path);

  private:
    friend class Pipeline; // compile() builds from its cached stages

    struct DerivedCache; // compiled_model.cc

    CompiledModel(Artifacts artifacts, const MapArtifact &map,
                  const EvalArtifact &eval);

    Artifacts a_;
    PerfReport performance_;
    EnergyReport energy_;
    ResourceDemand demand_;

    /**
     * Lazily built derived artifacts (execution plan, functional
     * synthesis).  Held by shared_ptr so copies of an artifact share
     * one cache; the artifacts themselves stay immutable.
     */
    std::shared_ptr<DerivedCache> cache_;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_COMPILED_MODEL_HH
