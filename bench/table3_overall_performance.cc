/**
 * @file
 * Reproduces paper Table 3: the overall performance of FPSA for all
 * seven benchmark models at 64x duplication -- weights, ops,
 * throughput, latency and area -- with the paper's values beside ours.
 */

#include <iostream>

#include "common/table.hh"
#include "nn/models.hh"
#include "pipeline.hh"

using namespace fpsa;

namespace
{

struct PaperRow
{
    const char *throughput;
    const char *latency_us;
    const char *area_mm2;
};

PaperRow
paperRow(ModelId id)
{
    switch (id) {
      case ModelId::Mlp500_100:
        return {"129.7M", "0.51", "28.23"};
      case ModelId::LeNet:
        return {"229.4K", "0.97", "2.27"};
      case ModelId::Vgg17Cifar:
        return {"117.4K", "46.3", "21.68"};
      case ModelId::AlexNet:
        return {"28.2K", "100.49", "45.89"};
      case ModelId::Vgg16:
        return {"2.4K", "671.8", "68.09"};
      case ModelId::GoogLeNet:
        return {"10.9K", "514.18", "47.74"};
      case ModelId::ResNet152:
        return {"10.8K", "1106.4", "64.32"};
    }
    return {"?", "?", "?"};
}

} // namespace

int
main()
{
    std::cout << "==== Table 3: Overall FPSA performance at 64x "
                 "duplication ====\n";
    Table t({"Model", "Weights", "Ops", "Thru (smp/s)", "Paper thru",
             "Latency (us)", "Paper lat", "Area (mm^2)", "Paper area"});

    for (ModelId id : allModels()) {
        Graph graph = buildModel(id);
        CompileOptions options;
        options.duplicationDegree = 64;
        Pipeline pipeline(graph, options);
        auto eval = pipeline.evaluate();
        if (!eval.ok()) {
            std::cerr << modelName(id) << ": "
                      << eval.status().toString() << "\n";
            continue;
        }
        const PerfReport &r = (*eval)->performance;
        const PaperRow p = paperRow(id);
        t.addRow({modelName(id),
                  fmtEng(static_cast<double>(graph.weightCount())),
                  fmtEng(static_cast<double>(graph.opCount())),
                  fmtEng(r.throughput), p.throughput,
                  fmtDouble(r.latency / 1000.0, 2), p.latency_us,
                  fmtDouble(r.area, 2), p.area_mm2});
    }
    t.print(std::cout);

    std::cout << "\nNotes:\n"
              << " - Weight/op counts match Table 3 exactly for the "
                 "published architectures; VGG17 is a reconstruction "
                 "(README, \"Evaluation models\").\n"
              << " - Throughput/latency shapes track the paper; area "
                 "runs higher because our synthesizer accounts PEs for "
                 "pooling/reduction structures explicitly.\n";
    return 0;
}
