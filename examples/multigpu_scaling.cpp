/**
 * @file
 * Multi-GPU DataParallel scaling demo (the paper's Fig. 6): epoch
 * time of GCN and GAT on MNIST-superpixel graphs at 1/2/4/8 GPUs.
 *
 * Usage: multigpu_scaling [num_graphs] [batch_size]
 *   num_graphs  1..100000 (default 600)
 *   batch_size  1..100000 (default 256)
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/report.hh"
#include "example_args.hh"

using namespace gnnperf;

int
main(int argc, char **argv)
{
    MnistSuperpixelConfig cfg;
    cfg.numGraphs = intArg(argc, argv, 1, "num_graphs", 600, 1, 100000);
    const int64_t batch =
        intArg(argc, argv, 2, "batch_size", 256, 1, 100000);

    std::printf("generating %ld MNIST superpixel graphs...\n",
                cfg.numGraphs);
    GraphDataset dataset = makeMnistSuperpixels(cfg);
    DatasetInfo info = dataset.info();
    std::printf("%s: avg %.1f nodes, %.1f edges per graph\n",
                info.name.c_str(), info.avgNodes, info.avgEdges);

    std::vector<MultiGpuCell> cells = runMultiGpuScaling(
        dataset, {ModelKind::GCN, ModelKind::GAT}, {batch},
        {1, 2, 4, 8}, /*seed=*/3);

    std::printf("\n%s",
                renderMultiGpuTable(dataset.name, cells).c_str());
    std::printf("\nExpected shape (paper): mild gains 1→4 GPUs "
                "(loading-bound), little or negative gain at 8.\n");
    return 0;
}
