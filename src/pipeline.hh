/**
 * @file
 * The staged compile pipeline: the primary public API of the FPSA
 * software stack (paper Fig. 5, made resumable and introspectable).
 *
 * A `Pipeline` owns a computational graph plus `CompileOptions` and
 * exposes the stack's stages explicitly:
 *
 *     synthesize()     neural synthesizer        -> SynthesisSummary
 *     map()            spatial-to-temporal mapper -> MapArtifact
 *     placeAndRoute()  placement & routing        -> PnrResult
 *     evaluate()       performance + energy model -> EvalArtifact
 *
 * Each stage runs its prerequisites on demand, caches its artifact, and
 * is only re-run when an option *within its scope* changes: changing
 * `perf` knobs re-runs evaluation alone; changing the duplication
 * degree invalidates mapping onward but reuses the synthesis; changing
 * `synth` knobs rebuilds everything.  That makes design-space sweeps
 * (duplication degree, PE params, PnR on/off) pay only for the stages
 * they actually perturb:
 *
 *     Pipeline p(buildModel(ModelId::Vgg16));
 *     for (std::int64_t d : {1, 4, 16, 64}) {
 *         p.setDuplicationDegree(d);     // invalidates map onward only
 *         auto eval = p.evaluate();      // synthesis runs once, total
 *         if (eval.ok())
 *             use((*eval)->performance);
 *     }
 *
 * Stage failures (zero-size layer, out-of-range option, infeasible
 * allocation, unroutable netlist) are reported through
 * `Status`/`StatusOr` instead of killing the process, and `report()`
 * serializes options, per-stage timings and every cached artifact to
 * JSON for benches and regression tracking.
 *
 * Artifacts are returned as `shared_ptr<const T>`: handles stay valid
 * after the pipeline invalidates or re-runs a stage, so sweep loops can
 * keep earlier configurations around for comparison.
 */

#ifndef FPSA_PIPELINE_HH
#define FPSA_PIPELINE_HH

#include <memory>
#include <string>

#include "common/status.hh"
#include "compiler.hh"
#include "runtime/compiled_model.hh"

namespace fpsa
{

/** The four pipeline stages, in dependency order. */
enum class Stage
{
    Synthesize = 0,
    Map = 1,
    PlaceAndRoute = 2,
    Evaluate = 3,
};

constexpr int kStageCount = 4;

/**
 * Largest duplication degree a `Pipeline` accepts.  Past the model's
 * reuse, duplication replicates the whole mapped pipeline, so the
 * mapper's netlist grows linearly with the degree; the cap keeps a
 * degree read from a file from exhausting memory.  The repo's sweeps
 * reach 256.
 */
constexpr std::int64_t kMaxDuplicationDegree = 1024;

const char *stageName(Stage stage);

/** Execution counters and wall-clock timings of one stage. */
struct StageStats
{
    int runs = 0;           //!< times the stage actually executed
    int cacheHits = 0;      //!< requests served from the cached artifact
    double lastMillis = 0.0;
    double totalMillis = 0.0;
};

/** Artifact of the mapping stage: allocation + function-block netlist. */
struct MapArtifact
{
    AllocationResult allocation;
    Netlist netlist;
};

/** Artifact of the evaluation stage. */
struct EvalArtifact
{
    PerfReport performance;
    EnergyReport energy;
};

/** The staged, caching compile pipeline. */
class Pipeline
{
  public:
    explicit Pipeline(Graph graph, CompileOptions options = {});

    /** Compile a graph shared with the models compile() returns. */
    explicit Pipeline(std::shared_ptr<const Graph> graph,
                      CompileOptions options = {});

    const Graph &graph() const { return *graph_; }
    const CompileOptions &options() const { return options_; }

    // ------------------------------------------------------- options
    // Scoped setters: each invalidates exactly the stages its option
    // feeds.  `setOptions` diffs member-wise and applies the narrowest
    // invalidation that covers every changed member.

    void setOptions(const CompileOptions &options);
    void setSynthOptions(const SynthOptions &synth);          // all stages
    void setDuplicationDegree(std::int64_t degree);           // map onward
    void setAllocationOptions(const AllocationOptions &alloc);// map onward
    void setMapperOptions(const MapperOptions &mapper);       // map onward
    void setRunPlaceAndRoute(bool run);                       // eval only
    void setPnrOptions(const PnrOptions &pnr);                // pnr onward
    void setPerfOptions(const FpsaPerfOptions &perf);         // eval only

    // -------------------------------------------------------- stages
    // Each call runs missing prerequisites, then returns the stage's
    // (possibly cached) artifact or the Status that stopped it.

    /**
     * Lower the graph analytically.  Validates the graph and the
     * `synth` options first; each later stage likewise rejects
     * out-of-range options in its own scope with `InvalidArgument`
     * (zero or negative sizes and widths, bit widths outside [1, 16],
     * a duplication degree outside [1, kMaxDuplicationDegree]).
     */
    StatusOr<std::shared_ptr<const SynthesisSummary>> synthesize();

    /** Allocate PEs for the duplication degree and emit the netlist. */
    StatusOr<std::shared_ptr<const MapArtifact>> map();

    /**
     * Place and route the netlist on an auto-sized chip.  Runs
     * regardless of `options().runPlaceAndRoute` when called directly.
     * An unconverged full route returns `StatusCode::Unroutable`; the
     * partial result stays cached and visible via `pnrArtifact()`.
     */
    StatusOr<std::shared_ptr<const PnrResult>> placeAndRoute();

    /**
     * Evaluate performance and energy.  Uses the PnR-measured wire
     * delay when `options().runPlaceAndRoute` is set (an unroutable
     * netlist degrades to a warning).
     */
    StatusOr<std::shared_ptr<const EvalArtifact>> evaluate();

    /** Run every stage (PnR only when `runPlaceAndRoute`). */
    Status run();

    /** Assemble the whole-stack result, running missing stages. */
    StatusOr<CompileResult> result();

    /**
     * Terminal stage: run everything and freeze the result into a
     * deployable `CompiledModel`: graph + materialized weights +
     * options + PnR timing when `runPlaceAndRoute` is set, plus the
     * modeled performance/energy and resource demand taken from the
     * cached stages (not re-run).  The graph must have materialized
     * conv/fc weights shaped like their nodes -- serving needs real
     * parameters -- or `InvalidArgument` comes back.  The bundle is a
     * snapshot: later option changes on this pipeline don't touch
     * models already compiled.  See runtime/compiled_model.hh for
     * save/load and runtime/engine.hh for serving.
     */
    StatusOr<CompiledModel> compile();

    // ------------------------------------------------- introspection

    /**
     * Whether a stage's last outcome is cached -- true after a failed
     * attempt too (the cached outcome is then the error; the artifact
     * accessor returns null).  An option change within the stage's
     * scope resets this to false.
     */
    bool cached(Stage stage) const;

    /** Counters/timings of one stage (survive invalidation). */
    const StageStats &stats(Stage stage) const;

    /** Last cached artifacts (null when not cached). */
    std::shared_ptr<const SynthesisSummary> synthesisArtifact() const;
    std::shared_ptr<const MapArtifact> mapArtifact() const;
    std::shared_ptr<const PnrResult> pnrArtifact() const;
    std::shared_ptr<const EvalArtifact> evalArtifact() const;

    /**
     * JSON report: options, per-stage run/cache counters and timings,
     * and every cached artifact's summary (synthesis statistics,
     * allocation, netlist size, PnR timing, performance, energy).
     */
    std::string report() const;

  private:
    friend class CompiledModel; // fromArtifacts() restores PnR timing

    /** Drop cached artifacts (and stage statuses) from `first` on. */
    void invalidateFrom(Stage first);

    /**
     * Use a stored PnR outcome instead of running the search: with
     * `runPlaceAndRoute` set, evaluate() takes its wire delay from
     * `timing` exactly as from a fresh route, and compile() stores it
     * back.  Any option change in PnR scope drops it.
     */
    void restorePlaceAndRoute(const CompiledTiming &timing);

    /** The restored timing, else the cached PnR result's, else none. */
    std::optional<CompiledTiming> pnrTiming() const;

    /** Immutable; every compiled model shares it. */
    std::shared_ptr<const Graph> graph_;
    CompileOptions options_;

    StageStats stats_[kStageCount];
    Status stageStatus_[kStageCount]; //!< of the last (cached) attempt
    bool attempted_[kStageCount] = {false, false, false, false};

    std::shared_ptr<const SynthesisSummary> synthesis_;
    std::shared_ptr<const MapArtifact> map_;
    std::shared_ptr<const PnrResult> pnr_;
    std::optional<CompiledTiming> restoredTiming_;
    std::shared_ptr<const EvalArtifact> eval_;
};

} // namespace fpsa

#endif // FPSA_PIPELINE_HH
