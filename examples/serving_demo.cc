/**
 * @file
 * Worked example of the typed serving API: register matrices once,
 * stand up a Session, and stream SpMV / SpMM / SpAdd requests
 * through the async pipeline. Demonstrates the serving-layer
 * guarantees — no exception crosses the API boundary (statuses come
 * back as serve::Result), format auto-selection runs once per
 * matrix, conversions are cached, each request computes alone on
 * one pool worker, priorities set start order, and admission
 * control sheds overload with kOverloaded instead of queueing
 * without bound.
 */

#include <future>
#include <iostream>
#include <vector>

#include "engine/format.hh"
#include "serve/session.hh"
#include "workloads/matrix_gen.hh"

using namespace smash;

namespace
{

std::vector<Value>
operand(Index cols, Index kind)
{
    std::vector<Value> x(static_cast<std::size_t>(cols));
    for (Index i = 0; i < cols; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i + kind) % 5) * Value(0.25);
    return x;
}

double
norm1(const std::vector<Value>& y)
{
    double s = 0;
    for (Value v : y)
        s += std::abs(static_cast<double>(v));
    return s;
}

} // namespace

int
main()
{
    // 1. A registry owns the named matrices. put() analyzes each
    //    structure once (§7.2.3) and picks its serving format.
    serve::MatrixRegistry registry;
    const eng::Format ranker_fmt = registry.put(
        "ranker", wl::genWithLocality(1024, 1024, 16000, 8, 0.9, 5));
    const eng::Format graph_fmt = registry.put(
        "graph", wl::genPowerLaw(1024, 1024, 12000, 1.2, 9));
    std::cout << "registered 'ranker' as " << eng::toString(ranker_fmt)
              << ", 'graph' as " << eng::toString(graph_fmt) << "\n";

    // 2. A session serves typed requests: submit() returns a
    //    future<Result<T>>; the pipeline converts (once) and runs
    //    each request as one task on its thread pool.
    serve::SessionOptions options;
    options.threads = 4;
    options.maxInflight = 64; // admission control on
    serve::Session session(registry, options);

    std::vector<std::future<serve::Result<std::vector<Value>>>> spmv;
    for (Index wave = 0; wave < 2; ++wave)
        for (Index k = 0; k < 8; ++k) {
            // kBatch priority: throughput traffic, started last and
            // shed first under overload.
            serve::RequestOptions bulk;
            bulk.priority = serve::Priority::kBatch;
            spmv.push_back(session.submit(serve::SpmvRequest{
                "ranker", operand(1024, k), bulk}));
            spmv.push_back(session.submit(serve::SpmvRequest{
                "graph", operand(1024, k + 3), {}}));
        }

    // A latency-sensitive request: the next free worker takes kHigh
    // ahead of any queued kNormal or kBatch request.
    serve::RequestOptions urgent;
    urgent.priority = serve::Priority::kHigh;
    serve::Result<std::vector<Value>> hot = session
        .submit(serve::SpmvRequest{"ranker", operand(1024, 0), urgent})
        .get();
    std::cout << "high-priority request: " << hot.status().toString()
              << ", |y|_1 = " << norm1(hot.value()) << "\n";

    // 3. Statuses are data, not exceptions: an unknown name or a
    //    wrong-length operand comes back as a ready Result.
    serve::Result<std::vector<Value>> missing =
        session.submit(serve::SpmvRequest{"nope", operand(1024, 0)})
            .get();
    serve::Result<std::vector<Value>> short_x =
        session.submit(serve::SpmvRequest{"ranker", operand(57, 0)})
            .get();
    std::cout << "unknown matrix  -> " << missing.status().toString()
              << "\nshort operand   -> " << short_x.status().toString()
              << "\n";

    // 4. SpMM: a dense multi-RHS block, one SpMV per column. SpAdd:
    //    merge two registered matrices.
    fmt::DenseMatrix block(1024, 4);
    for (Index c = 0; c < 4; ++c)
        for (Index j = 0; j < 1024; ++j)
            block.at(j, c) = operand(1024, c)[static_cast<std::size_t>(j)];
    serve::Result<fmt::DenseMatrix> spmm =
        session.submit(serve::SpmmRequest{"ranker", block}).get();
    std::cout << "spmm 4-RHS block -> " << spmm.status().toString()
              << ", C is " << spmm.value().rows() << "x"
              << spmm.value().cols() << "\n";

    serve::Result<fmt::CooMatrix> sum =
        session.submit(serve::SpaddRequest{"ranker", "graph"}).get();
    std::cout << "spadd ranker+graph -> " << sum.status().toString()
              << ", " << sum.value().nnz() << " non-zeros\n";

    // 5. Futures resolve as their requests complete (arrival order
    //    need not match submission order; every future is
    //    independent).
    double checksum = 0;
    for (auto& f : spmv) {
        serve::Result<std::vector<Value>> r = f.get();
        if (r.ok())
            checksum += norm1(r.value());
    }
    std::cout << "served " << spmv.size()
              << " spmv requests, result checksum " << checksum << "\n";

    // drain() settles the pipeline's accounting before we read it
    // (futures resolve before their worker finishes counting).
    session.drain();
    const serve::PipelineStats& stats = session.stats();
    std::cout << "pipeline: " << stats.completed.load()
              << " completed; p99 latency (normal) "
              << stats.latency(serve::Priority::kNormal)
                     .percentile(0.99)
              << " us; conversions: ranker "
              << registry.conversions("ranker") << ", graph "
              << registry.conversions("graph")
              << " (cached after the first touch)\n";
    return 0;
}
