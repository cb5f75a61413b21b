/**
 * @file
 * `feather_cli`: run one workload scenario, a batch/sweep of them on the
 * multi-threaded serve engine, or a whole model graph through the
 * per-layer dataflow/layout scheduler.
 *
 *   $ ./feather_cli --list
 *   $ ./feather_cli --workload resnet_block --dataflow ws --layout concordant
 *   $ ./feather_cli --sweep quickstart_conv --jobs 8 --report-csv sweep.csv
 *   $ ./feather_cli --batch jobs.txt --jobs 4
 *   $ ./feather_cli --model resnet_block --schedule per-layer
 *   $ ./feather_cli --list-models
 */

#include "model/model_cli.hpp"

int
main(int argc, char **argv)
{
    return feather::model::cliMain(argc, argv);
}
