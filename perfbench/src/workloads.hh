/**
 * @file
 * The three workloads and the traced run's per-layer probes.
 *
 *   rpc-small     open loop over a Unix socket, small matrix: the
 *                 per-request overhead of codec, socket, admission,
 *                 batcher timer and pipeline hops.
 *   bulk-sharded  closed loop of 2 callers over a Unix socket, a
 *                 tens-of-MB auto-selected matrix sharded 4 ways:
 *                 kernel, engine dispatch and shard scatter–gather.
 *   update-mix    in-process Session, 2 readers beside 1 writer
 *                 whose mutations invalidate encodings and, every
 *                 Nth, trigger an async drift re-encode.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "serve/registry.hh"

namespace perfbench
{

/** What one run reports. */
struct WorkloadOutput
{
    Tally tally;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    SpanLog spans;
};

void runRpcSmall(const Options& options, WorkloadOutput& out);
void runBulkSharded(const Options& options, WorkloadOutput& out);
void runUpdateMix(const Options& options, WorkloadOutput& out);

/** What the layer ladder needs to know about a workload. */
struct LadderInput
{
    smash::serve::MatrixRegistry& registry; //!< holds kMatrixName
    const smash::fmt::CooMatrix& coo;       //!< its current content
    bool sharded = false;
    double batchMean = 1;   //!< mean batch width seen under load
    double offeredRps = 0;  //!< sizes the armed quotas
    std::string workDir;
    bool breakOracle = false;
};

/**
 * Time one SpMV at each of the six rungs — serial CSR kernel,
 * plan-cached parallel eng::spmv, in-process Session, Unix socket,
 * TCP, RetryingClient against a server with quotas and shedding
 * armed — interleaved round by round, plus the batched engine call,
 * the shard scatter–gather path and the wire codec on the
 * workload's own frames. Every answer is checked against the
 * oracle; failures land in @p tally.
 */
std::vector<Metric> runLadder(const LadderInput& in, Tally& tally);

/**
 * Registry mutation costs on a side copy of a static workload's
 * matrix (registered the same way): value-only updates, then one
 * boundary-crossing replaceRows and the async re-encode it starts.
 */
std::vector<Metric> registryProbe(const smash::fmt::CooMatrix& coo,
                                  bool sharded, Tally& tally);

/** The registry.* and update metrics a mutation run produced. */
struct MutationTimings
{
    std::vector<double> applyUpdatesUs;
    std::vector<double> allUs;
    std::vector<double> reencodeMs;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
