/**
 * @file
 * Tests for the staged `Pipeline` API: stage-cache invalidation
 * granularity (option changes re-run only the stages they scope to),
 * equivalence of staged and one-shot `result()` calls, the `Status`
 * error channel for infeasible models, and the JSON report.
 */

#include <gtest/gtest.h>

#include "common/status.hh"
#include "compiler.hh"
#include "nn/builder.hh"
#include "nn/models.hh"
#include "pipeline.hh"

namespace fpsa
{
namespace
{

Graph
smallMlp()
{
    return buildMlp(64, {32}, 10);
}

TEST(Status, DefaultIsOkErrorCarriesCodeAndMessage)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "OK");

    Status err = Status::error(StatusCode::Infeasible, "no room");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.code(), StatusCode::Infeasible);
    EXPECT_EQ(err.toString(), "INFEASIBLE: no room");
}

TEST(Status, StatusOrHoldsValueOrStatus)
{
    StatusOr<int> v = 42;
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 42);

    StatusOr<int> e =
        Status::error(StatusCode::InvalidArgument, "bad");
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
}

TEST(Pipeline, StagesRunOnDemandAndCache)
{
    Pipeline p(smallMlp());
    EXPECT_FALSE(p.cached(Stage::Synthesize));

    auto eval = p.evaluate();
    ASSERT_TRUE(eval.ok());
    EXPECT_GT((*eval)->performance.throughput, 0.0);

    // evaluate() pulled every upstream stage exactly once.
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 1);
    EXPECT_EQ(p.stats(Stage::Map).runs, 1);
    EXPECT_EQ(p.stats(Stage::PlaceAndRoute).runs, 0); // off by default
    EXPECT_EQ(p.stats(Stage::Evaluate).runs, 1);

    // A second evaluate() is pure cache.
    auto again = p.evaluate();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(p.stats(Stage::Evaluate).runs, 1);
    EXPECT_GT(p.stats(Stage::Evaluate).cacheHits, 0);
    EXPECT_EQ(*eval, *again); // same shared artifact
}

TEST(Pipeline, PerfOptionChangeReusesSynthesisAndMapping)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());
    const auto synthesis = p.synthesisArtifact();
    const auto mapped = p.mapArtifact();

    FpsaPerfOptions perf;
    perf.wireDelayPerBit = 0.0; // ideal wires
    p.setPerfOptions(perf);

    EXPECT_TRUE(p.cached(Stage::Synthesize));
    EXPECT_TRUE(p.cached(Stage::Map));
    EXPECT_FALSE(p.cached(Stage::Evaluate));

    ASSERT_TRUE(p.evaluate().ok());
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 1);
    EXPECT_EQ(p.stats(Stage::Map).runs, 1);
    EXPECT_EQ(p.stats(Stage::Evaluate).runs, 2);
    // The artifacts were reused, not rebuilt.
    EXPECT_EQ(p.synthesisArtifact(), synthesis);
    EXPECT_EQ(p.mapArtifact(), mapped);
}

TEST(Pipeline, DuplicationChangeInvalidatesMapOnward)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());
    const auto synthesis = p.synthesisArtifact();

    p.setDuplicationDegree(4);
    EXPECT_TRUE(p.cached(Stage::Synthesize));
    EXPECT_FALSE(p.cached(Stage::Map));
    EXPECT_FALSE(p.cached(Stage::Evaluate));

    ASSERT_TRUE(p.evaluate().ok());
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 1);
    EXPECT_EQ(p.stats(Stage::Map).runs, 2);
    EXPECT_EQ(p.synthesisArtifact(), synthesis);
    EXPECT_EQ(p.mapArtifact()->allocation.duplicationDegree, 4);
}

TEST(Pipeline, SynthOptionChangeInvalidatesEverything)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());

    SynthOptions synth;
    synth.crossbarRows = 128;
    synth.crossbarCols = 128;
    p.setSynthOptions(synth);
    EXPECT_FALSE(p.cached(Stage::Synthesize));
    EXPECT_FALSE(p.cached(Stage::Map));

    ASSERT_TRUE(p.evaluate().ok());
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 2);
    EXPECT_EQ(p.options().synth.crossbarRows, 128);
}

TEST(Pipeline, SetOptionsDiffsToNarrowestInvalidation)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());

    // Same options: nothing invalidated.
    p.setOptions(p.options());
    EXPECT_TRUE(p.cached(Stage::Evaluate));

    // Only a perf knob differs: evaluate alone re-runs.
    CompileOptions opts = p.options();
    opts.perf.ioBits = 8;
    p.setOptions(opts);
    EXPECT_TRUE(p.cached(Stage::Map));
    EXPECT_FALSE(p.cached(Stage::Evaluate));

    // A mapper knob differs: map onward, synthesis kept.
    opts.mapper.busWidth = 128;
    p.setOptions(opts);
    EXPECT_TRUE(p.cached(Stage::Synthesize));
    EXPECT_FALSE(p.cached(Stage::Map));
}

TEST(Pipeline, UnchangedSetterIsANoOp)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());
    p.setDuplicationDegree(p.options().duplicationDegree);
    p.setPerfOptions(p.options().perf);
    EXPECT_TRUE(p.cached(Stage::Map));
    EXPECT_TRUE(p.cached(Stage::Evaluate));
}

TEST(Pipeline, ArtifactHandlesSurviveInvalidation)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.map().ok());
    auto before = p.mapArtifact();
    const std::int64_t pes_before = before->allocation.totalPes;

    p.setDuplicationDegree(16);
    ASSERT_TRUE(p.map().ok());
    // The old handle still reads the old configuration.
    EXPECT_EQ(before->allocation.totalPes, pes_before);
    EXPECT_NE(p.mapArtifact(), before);
}

TEST(Pipeline, MatchesOneShotWrapper)
{
    Graph g = smallMlp();
    CompileOptions opts;
    opts.duplicationDegree = 8;

    // A fresh pipeline's one-shot result() equals the result of a
    // pipeline driven stage by stage.
    auto one_shot = Pipeline(g, opts).result();
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().toString();

    Pipeline p(g, opts);
    ASSERT_TRUE(p.synthesize().ok());
    ASSERT_TRUE(p.map().ok());
    ASSERT_TRUE(p.evaluate().ok());
    auto staged = p.result();
    ASSERT_TRUE(staged.ok());
    EXPECT_DOUBLE_EQ(staged->performance.throughput,
                     one_shot->performance.throughput);
    EXPECT_DOUBLE_EQ(staged->performance.area,
                     one_shot->performance.area);
    EXPECT_DOUBLE_EQ(staged->energy.perSample(),
                     one_shot->energy.perSample());
    EXPECT_EQ(staged->allocation.totalPes,
              one_shot->allocation.totalPes);
    EXPECT_EQ(staged->netlist.blocks().size(),
              one_shot->netlist.blocks().size());
}

TEST(Pipeline, PlaceAndRouteFeedsMeasuredDelayIntoEvaluation)
{
    GraphBuilder b({1, 12, 12});
    b.convRelu(8, 3, 1, 0).maxPool(2, 2).flatten().fc(10);
    CompileOptions opts;
    opts.duplicationDegree = 2;
    opts.runPlaceAndRoute = true;

    Pipeline p(b.build(), opts);
    auto pnr = p.placeAndRoute();
    ASSERT_TRUE(pnr.ok());
    EXPECT_TRUE((*pnr)->routed);
    EXPECT_GT((*pnr)->timing.avgNetDelay, 0.0);

    auto eval = p.evaluate();
    ASSERT_TRUE(eval.ok());
    // evaluate() reused the explicit PnR run instead of repeating it.
    EXPECT_EQ(p.stats(Stage::PlaceAndRoute).runs, 1);
    EXPECT_NEAR((*eval)->performance.commPerPe,
                64.0 * (*pnr)->timing.avgNetDelay,
                64.0 * (*pnr)->timing.avgNetDelay * 0.01 + 1e-9);
}

TEST(Pipeline, ZeroSizeLayerIsInvalidArgumentNotACrash)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(0); // zero-size output layer
    Pipeline p(b.build());

    auto synthesis = p.synthesize();
    ASSERT_FALSE(synthesis.ok());
    EXPECT_EQ(synthesis.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(synthesis.status().message().find("zero-size"),
              std::string::npos);

    // Downstream stages report the same failure without re-running.
    auto eval = p.evaluate();
    ASSERT_FALSE(eval.ok());
    EXPECT_EQ(eval.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 1);
    EXPECT_EQ(p.stats(Stage::Map).runs, 0);
}

TEST(Pipeline, EmptyGraphIsInvalidArgument)
{
    auto status = Pipeline(Graph()).run();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

TEST(Pipeline, WeightlessGraphIsInvalidArgument)
{
    // An input-only graph lowers to no weight groups at all (even
    // pooling synthesizes aux structures, a bare input does not).
    Graph g;
    g.addInput({3, 8, 8});
    auto result = Pipeline(g).result();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST(Pipeline, BadDuplicationDegreeIsInvalidArgument)
{
    Pipeline p(smallMlp());
    p.setDuplicationDegree(0);
    auto mapped = p.map();
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::InvalidArgument);
    // Synthesis is fine and stays cached for the corrected retry.
    EXPECT_TRUE(p.cached(Stage::Synthesize));

    p.setDuplicationDegree(2);
    EXPECT_TRUE(p.map().ok());
    EXPECT_EQ(p.stats(Stage::Synthesize).runs, 1);
}

TEST(Pipeline, ReportSerializesStagesAndArtifacts)
{
    Pipeline p(smallMlp());
    ASSERT_TRUE(p.evaluate().ok());

    const std::string json = p.report();
    // Spot-check structure: stage entries, artifacts, and that the
    // not-yet-run PnR stage reports null.
    EXPECT_NE(json.find("\"stages\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"synthesize\""), std::string::npos);
    EXPECT_NE(json.find("\"throughput\":"), std::string::npos);
    EXPECT_NE(json.find("\"pnr\":null"), std::string::npos);
    EXPECT_NE(json.find("\"totalPes\":"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

} // namespace
} // namespace fpsa
