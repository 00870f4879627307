/**
 * @file
 * Reproduces paper Fig. 9: normalized accuracy vs number of 4-bit
 * cells per weight for the splice and add representation methods.
 *
 * Two complementary reproductions (README, "Evaluation models"):
 *  1. Analytic VGG16-scale model driven by the exact deviation algebra
 *     of Sec. 7.2 (calibrated so PRIME's splice config = 0.70).
 *  2. A real MLP trained in-repo, its weights pushed through the
 *     multi-cell device model at an accelerated-stress sigma, accuracy
 *     measured directly.
 */

#include <iostream>

#include "accuracy/analytic.hh"
#include "accuracy/dataset.hh"
#include "accuracy/noise_eval.hh"
#include "accuracy/trainer.hh"
#include "common/table.hh"

using namespace fpsa;

int
main()
{
    const int cells[] = {1, 2, 4, 8, 16};

    std::cout << "==== Fig. 9 (analytic, VGG16-scale): normalized "
                 "accuracy vs #cells (4-bit cells) ====\n";
    AnalyticAccuracyModel model;
    Table t({"Cells", "Splice", "Add", "Add dev (sigma/range)",
             "Add eff. bits"});
    for (int k : cells) {
        WeightCodec add(WeightMethod::Add, 4, k);
        t.addRow({std::to_string(k),
                  fmtDouble(model.normalizedAccuracy(WeightMethod::Splice,
                                                     4, k), 3),
                  fmtDouble(model.normalizedAccuracy(WeightMethod::Add, 4,
                                                     k), 3),
                  fmtDouble(add.normalizedDeviation(model.sigmaOfRange),
                            4),
                  fmtDouble(add.effectiveSignedBits(), 2)});
    }
    t.print(std::cout);
    std::cout << "Markers: PRIME config = splice x2 ("
              << fmtDouble(model.normalizedAccuracy(WeightMethod::Splice,
                                                    4, 2), 3)
              << ", paper ~0.70); FPSA config = add x8 ("
              << fmtDouble(model.normalizedAccuracy(WeightMethod::Add, 4,
                                                    8), 3)
              << ", paper ~full precision).\n";

    std::cout << "\n==== Fig. 9 (measured, in-repo MLP on the synthetic "
                 "pattern task) ====\n";
    const DatasetSplit data = makePatternDataset();
    const TrainedMlp mlp = trainMlp(data.train);
    const double clean = mlp.accuracy(data.test);
    std::cout << "clean test accuracy: " << fmtDouble(clean, 3)
              << " (accuracies below are normalized by this)\n";

    // A small MLP tolerates the fabricated-device sigma, so we stress
    // at 5x to expose the same mechanism the paper plots for VGG16.
    const double stress_sigma = 0.12;
    Table m({"Cells", "Splice (norm.)", "Add (norm.)"});
    for (int k : cells) {
        NoiseEvalOptions splice, add;
        splice.method = WeightMethod::Splice;
        add.method = WeightMethod::Add;
        splice.cellsPerWeight = add.cellsPerWeight = k;
        splice.sigmaOfRange = add.sigmaOfRange = stress_sigma;
        splice.trials = add.trials = 6;
        const NoiseEvalResult rs =
            evaluateUnderVariation(mlp, data.test, splice);
        const NoiseEvalResult ra =
            evaluateUnderVariation(mlp, data.test, add);
        m.addRow({std::to_string(k),
                  fmtDouble(rs.meanAccuracy / clean, 3),
                  fmtDouble(ra.meanAccuracy / clean, 3)});
    }
    m.print(std::cout);
    std::cout << "(stress sigma = " << stress_sigma
              << " of cell range, 5x the fabricated-device corner of "
                 "0.024; Yao et al. 2017)\n"
              << "Expected shape: splice stays flat (deviation ~ "
                 "constant in k), add climbs toward full precision "
                 "(deviation ~ 1/sqrt(k)).\n";
    return 0;
}
