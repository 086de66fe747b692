/**
 * @file
 * Node classification on a citation network (the paper's Table IV
 * workload) for a user-chosen model and framework.
 *
 * Usage: citation_node_classification [model] [framework] [dataset]
 *                                     [epochs]
 *   model     GCN | GAT | SAGE | GIN | MoNet | GatedGCN  (default GCN)
 *   framework PyG | DGL                                   (default PyG)
 *   dataset   cora | pubmed                               (default cora)
 *   epochs    1..100000                                   (default 60)
 */

#include <cstdio>
#include <string>

#include "core/experiment.hh"
#include "common/string_utils.hh"
#include "example_args.hh"

using namespace gnnperf;

int
main(int argc, char **argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "GCN";
    const std::string fw_name = argc > 2 ? argv[2] : "PyG";
    const std::string ds_name = argc > 3 ? argv[3] : "cora";
    const int64_t epochs =
        intArg(argc, argv, 4, "epochs", 60, 1, 100000);

    const ModelKind kind = modelKindFromName(model_name);
    const FrameworkKind fw = iequals(fw_name, "dgl")
        ? FrameworkKind::DGL : FrameworkKind::PyG;

    std::printf("generating %s...\n", ds_name.c_str());
    NodeDataset dataset = iequals(ds_name, "pubmed")
        ? makePubMed() : makeCora();
    DatasetInfo info = dataset.info();
    std::printf("%s: %ld nodes, %.0f edges, %ld features, %ld classes\n",
                info.name.c_str(),
                static_cast<int64_t>(info.avgNodes), info.avgEdges,
                info.numFeatures, info.numClasses);

    TrainOptions opts;
    opts.maxEpochs = static_cast<int>(epochs);
    opts.seed = 3;
    opts.verbose = true;
    NodeTrainResult r = trainNodeTask(kind, getBackend(fw), dataset,
                                      opts);

    std::printf("\n%s under %s on %s\n", modelName(kind),
                frameworkName(fw), dataset.name.c_str());
    std::printf("  test accuracy   : %.1f%% (best val %.1f%%)\n",
                r.testAccuracy * 100.0, r.bestValAccuracy * 100.0);
    std::printf("  epochs run      : %d\n", r.epochsRun);
    std::printf("  time per epoch  : %.4f s (simulated 2080Ti)\n",
                r.epochTime);
    std::printf("  total time      : %.2f s (incl. evaluation)\n",
                r.totalTime);
    std::printf("  GPU utilization : %.1f%%\n",
                r.profile.gpuUtilization * 100.0);
    std::printf("  peak memory     : %s\n",
                formatBytes(r.profile.peakMemoryBytes).c_str());
    std::printf("  kernels/epoch   : %zu\n",
                r.profile.kernelsPerEpoch);
    return 0;
}
