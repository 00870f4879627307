#include "accuracy/calibration.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "accuracy/noise_eval.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace fpsa
{

namespace
{

/** Splice digits beyond the 62-bit level budget add no precision. */
int
clampedCells(WeightMethod method, int cell_bits, int cells)
{
    if (method == WeightMethod::Splice)
        return std::min(cells, std::max(1, 62 / cell_bits));
    return cells;
}

/** One rung of the mapping ladder: the best method at cost `cells`. */
struct MappingStep
{
    int cells = 1;            //!< nominal cells-per-weight cost
    WeightMethod method = WeightMethod::Add;
    int codecCells = 1;       //!< after the splice clamp
    double devPerSigma = 0.0; //!< codec deviation per unit sigma
    double effectiveBits = 0.0;
};

} // namespace

std::string
CalibrationResult::mappingSummary() const
{
    if (layers.empty())
        return "none";
    bool uniform_method = true;
    int min_cells = layers.front().cellsPerWeight;
    int max_cells = min_cells;
    for (const LayerCalibration &layer : layers) {
        if (layer.method != layers.front().method)
            uniform_method = false;
        min_cells = std::min(min_cells, layer.cellsPerWeight);
        max_cells = std::max(max_cells, layer.cellsPerWeight);
    }
    // Built with appends: gcc 12's -Wrestrict misfires on chained
    // `const char * + std::string` temporaries in optimized builds.
    std::string label = uniform_method
                            ? weightMethodName(layers.front().method)
                            : "mixed";
    label += " x";
    label += std::to_string(min_cells);
    if (min_cells != max_cells) {
        label += "..x";
        label += std::to_string(max_cells);
    }
    return label;
}

ModelCalibrator::ModelCalibrator() : ModelCalibrator(AnalyticAccuracyModel{})
{
}

ModelCalibrator::ModelCalibrator(AnalyticAccuracyModel base)
    : ModelCalibrator(base, Options{})
{
}

ModelCalibrator::ModelCalibrator(AnalyticAccuracyModel base,
                                 Options options)
    : base_(base), options_(std::move(options))
{
    fpsa_assert(!options_.cellChoices.empty(),
                "calibrator needs a non-empty cell ladder");
}

CalibrationResult
ModelCalibrator::calibrate(const Graph &graph, const VariationModel &chip,
                           double minAccuracy, std::uint64_t seed) const
{
    CalibrationResult result;

    // ---------------------------------------------------- sensitivity
    struct LayerRef
    {
        const GraphNode *node;
        double raw; //!< absMax * sqrt(numel): perturbation energy
    };
    std::vector<LayerRef> weighted;
    double raw_sq_sum = 0.0;
    for (const GraphNode &node : graph.nodes()) {
        if (!node.weights.has_value() || node.weights->numel() == 0)
            continue;
        const double raw =
            node.weights->absMax() *
            std::sqrt(static_cast<double>(node.weights->numel()));
        weighted.push_back(LayerRef{&node, raw});
        raw_sq_sum += raw * raw;
    }
    if (weighted.empty())
        return result; // nothing programmable: accuracy 1 by definition

    // -------------------------------------------------- mapping ladder
    const double sigma0 = chip.effectiveSigma(0.0);
    std::vector<MappingStep> ladder;
    for (int cells : options_.cellChoices) {
        MappingStep best;
        double best_score = -1.0;
        for (WeightMethod method :
             {WeightMethod::Splice, WeightMethod::Add}) {
            const int codec_cells =
                clampedCells(method, options_.cellBits, cells);
            WeightCodec codec(method, options_.cellBits, codec_cells);
            const double dev_per_sigma = codec.normalizedDeviation(1.0);
            const double bits = codec.effectiveSignedBits();
            const double score =
                base_.bitsFactor(bits) *
                base_.variationFactor(dev_per_sigma * sigma0);
            // Strict > keeps Splice (iterated first) only when it
            // strictly wins; the paper's add method is the tie default.
            if (score > best_score) {
                best_score = score;
                best = MappingStep{cells, method, codec_cells,
                                   dev_per_sigma, bits};
            }
        }
        ladder.push_back(best);
    }

    // ---------------------------------------- greedy per-layer ascent
    std::vector<std::size_t> rung(weighted.size(), 0);
    std::vector<double> sens(weighted.size(), 0.0);
    for (std::size_t l = 0; l < weighted.size(); ++l)
        sens[l] = raw_sq_sum > 0.0
                      ? weighted[l].raw / std::sqrt(raw_sq_sum)
                      : 1.0 / std::sqrt(static_cast<double>(
                                  weighted.size()));

    auto predicted = [&](const std::vector<std::size_t> &config) {
        double min_bits = std::numeric_limits<double>::infinity();
        double factor = 1.0;
        for (std::size_t l = 0; l < config.size(); ++l) {
            const MappingStep &step = ladder[config[l]];
            min_bits = std::min(min_bits, step.effectiveBits);
            factor *= base_.variationFactor(step.devPerSigma * sigma0 *
                                            sens[l]);
        }
        return std::clamp(base_.bitsFactor(min_bits) * factor, 0.0, 1.0);
    };

    double current = predicted(rung);
    while (current < minAccuracy) {
        std::size_t best_layer = weighted.size();
        double best_gain = 0.0;
        for (std::size_t l = 0; l < weighted.size(); ++l) {
            if (rung[l] + 1 >= ladder.size())
                continue;
            std::vector<std::size_t> trial = rung;
            ++trial[l];
            const double gain = predicted(trial) - current;
            // Strict > breaks ties toward the lowest layer index, so
            // the ascent is deterministic.
            if (best_layer == weighted.size() || gain > best_gain) {
                best_layer = l;
                best_gain = gain;
            }
        }
        if (best_layer == weighted.size())
            break; // every layer already at the top of the ladder
        ++rung[best_layer];
        current = predicted(rung);
    }

    // ------------------------------------- programming simulation
    auto simulateLayer = [&](std::size_t l) {
        const MappingStep &step = ladder[rung[l]];
        const Tensor &weights = *weighted[l].node->weights;

        LayerCalibration layer;
        layer.layer = weighted[l].node->name;
        layer.weightCount = weights.numel();
        layer.sensitivity = sens[l];
        layer.method = step.method;
        layer.cellsPerWeight = step.cells;
        layer.effectiveBits = step.effectiveBits;
        layer.analyticDeviation = step.devPerSigma * sigma0;

        // Strided subsample: bounded cost, deterministic coverage.
        const std::int64_t cap =
            std::max<std::int64_t>(options_.maxSimulatedWeightsPerLayer,
                                   1);
        const std::int64_t stride =
            std::max<std::int64_t>(weights.numel() / cap, 1);
        std::vector<float> sample;
        sample.reserve(static_cast<std::size_t>(
            std::min(weights.numel(), cap)));
        for (std::int64_t i = 0; i < weights.numel(); i += stride)
            sample.push_back(weights[i]);
        const std::int64_t sampled =
            static_cast<std::int64_t>(sample.size());
        Tensor probe(Shape{sampled}, std::move(sample));

        WeightCodec codec(step.method, options_.cellBits,
                          step.codecCells);
        const double amax = probe.absMax();
        if (amax > 0.0) {
            // Program the probe through the full corner at age 0 --
            // stuck-at faults included, so a faulty chip's excess
            // error lands in the stamped prediction.
            VariationModel program_corner = chip;
            program_corner.driftPerSecond = 0.0;
            Rng rng(seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(l) + 1)));
            Tensor programmed =
                perturbWeights(probe, codec, program_corner, 0.0, rng);
            Rng quiet(1); // sigma-0 path draws no noise
            Tensor quantized = perturbWeights(
                probe, codec, VariationModel::ideal(), 0.0, quiet);
            double err_sq = 0.0;
            for (std::int64_t i = 0; i < probe.numel(); ++i) {
                const double e = static_cast<double>(programmed[i]) -
                                 static_cast<double>(quantized[i]);
                err_sq += e * e;
            }
            // Both polarities contribute a noise draw, so the raw RMS
            // runs sqrt(2) above the codec's single-sided convention;
            // divide it out to stay commensurate with the analytic
            // deviation (and with the d0 calibration behind fig9).
            layer.measuredDeviation =
                std::sqrt(err_sq /
                          static_cast<double>(probe.numel())) /
                (amax * std::sqrt(2.0));
        }
        return layer;
    };

    std::vector<LayerCalibration> layers(weighted.size());
    for (std::size_t l = 0; l < weighted.size(); ++l)
        layers[l] = simulateLayer(l);

    auto verified = [&]() {
        double min_bits = std::numeric_limits<double>::infinity();
        double factor = 1.0;
        for (std::size_t l = 0; l < weighted.size(); ++l) {
            min_bits =
                std::min(min_bits, ladder[rung[l]].effectiveBits);
            factor *= base_.variationFactor(
                layers[l].measuredDeviation * sens[l]);
        }
        return std::clamp(base_.bitsFactor(min_bits) * factor, 0.0,
                          1.0);
    };

    // Write-and-verify: the measured prediction can land just under an
    // analytically-met SLO, so keep climbing the ladder (re-simulating
    // only the climbed layer) until the verified number clears it or
    // the ladder tops out. Each pass bumps one rung, so the loop is
    // bounded by layers x ladder height.
    double accuracy = verified();
    while (accuracy < minAccuracy) {
        std::size_t best_layer = weighted.size();
        double best_gain = 0.0;
        for (std::size_t l = 0; l < weighted.size(); ++l) {
            if (rung[l] + 1 >= ladder.size())
                continue;
            std::vector<std::size_t> trial = rung;
            ++trial[l];
            const double gain = predicted(trial) - predicted(rung);
            if (best_layer == weighted.size() || gain > best_gain) {
                best_layer = l;
                best_gain = gain;
            }
        }
        if (best_layer == weighted.size())
            break; // every layer already at the top of the ladder
        ++rung[best_layer];
        layers[best_layer] = simulateLayer(best_layer);
        accuracy = verified();
    }

    double min_bits = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < weighted.size(); ++l) {
        min_bits = std::min(min_bits, ladder[rung[l]].effectiveBits);
        result.totalCells += weighted[l].node->weights->numel() * 2 *
                             ladder[rung[l]].codecCells; // both polarities
    }
    result.minEffectiveBits = min_bits;
    result.predictedAccuracy = accuracy;
    result.layers = std::move(layers);
    return result;
}

double
ModelCalibrator::accuracyAtAge(const CalibrationResult &calibration,
                               const VariationModel &chip,
                               double ageSeconds) const
{
    if (calibration.layers.empty())
        return calibration.predictedAccuracy;
    const double sigma0 = chip.effectiveSigma(0.0);
    const double sigma_t = chip.effectiveSigma(ageSeconds);
    if (sigma_t <= sigma0)
        return calibration.predictedAccuracy;

    // Degrade the stamped (measured) prediction by the analytic growth
    // of each layer's deviation from sigma(0) to sigma(age); the codec
    // deviations are linear in sigma, so the ratio is exact.
    double ratio = 1.0;
    for (const LayerCalibration &layer : calibration.layers) {
        WeightCodec codec(
            layer.method, options_.cellBits,
            clampedCells(layer.method, options_.cellBits,
                         layer.cellsPerWeight));
        const double dev_per_sigma = codec.normalizedDeviation(1.0);
        const double d0 = dev_per_sigma * sigma0 * layer.sensitivity;
        const double dt = dev_per_sigma * sigma_t * layer.sensitivity;
        ratio *= base_.variationFactor(dt) / base_.variationFactor(d0);
    }
    return std::clamp(calibration.predictedAccuracy * ratio, 0.0, 1.0);
}

} // namespace fpsa
