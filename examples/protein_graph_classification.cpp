/**
 * @file
 * Graph classification on an ENZYMES-like protein dataset (the
 * paper's Table V workload): 10-fold cross-validation for one model
 * under both frameworks, with the per-epoch execution-time breakdown.
 *
 * Usage: protein_graph_classification [model] [folds] [epochs]
 *   folds   1..10 of the ten-fold split (default 2)
 *   epochs  1..100000 (default 12)
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/report.hh"
#include "example_args.hh"

using namespace gnnperf;

int
main(int argc, char **argv)
{
    const ModelKind kind =
        modelKindFromName(argc > 1 ? argv[1] : "GIN");
    const int64_t folds = intArg(argc, argv, 2, "folds", 2, 1, 10);
    const int64_t epochs =
        intArg(argc, argv, 3, "epochs", 12, 1, 100000);

    GraphDataset dataset = makeEnzymes(/*seed=*/42,
                                       /*num_graphs=*/240);
    std::printf("dataset: %s (%zu graphs)\n", dataset.name.c_str(),
                dataset.graphs.size());

    std::vector<FoldSplit> splits =
        stratifiedKFold(dataset.labels(), 10, /*seed=*/1);

    for (FrameworkKind fw : allFrameworks()) {
        std::vector<double> accs;
        GraphTrainResult last;
        for (int64_t f = 0; f < folds; ++f) {
            TrainOptions opts;
            opts.maxEpochs = static_cast<int>(epochs);
            opts.seed = 11 + static_cast<uint64_t>(f);
            last = trainGraphTask(kind, getBackend(fw), dataset,
                                  splits[static_cast<std::size_t>(f)],
                                  opts);
            accs.push_back(last.testAccuracy);
        }
        SeriesStats stats = computeStats(accs);
        const EpochBreakdown &b = last.profile.breakdown;
        std::printf(
            "%s under %-3s: acc %5.1f%%±%.1f  epoch %7.2f ms  "
            "breakdown: load %.2f / fwd %.2f / bwd %.2f / upd %.2f / "
            "other %.2f ms\n",
            modelName(kind), frameworkName(fw), stats.mean * 100.0,
            stats.stddev * 100.0, last.epochTime * 1e3,
            b.dataLoading * 1e3, b.forward * 1e3, b.backward * 1e3,
            b.update * 1e3, b.other * 1e3);
    }
    return 0;
}
