/**
 * @file
 * Worked example of the observability layer: stand up a serving
 * session, push mixed-priority traffic through it with event
 * tracing armed, run the engine's parallel driver on the served
 * encoding, then harvest all three instrumentation products —
 * the Prometheus text exposition (what a /metrics endpoint would
 * serve), the per-stage latency breakdown from the session's span
 * stamps, and a Chrome trace-event JSON file ready for
 * chrome://tracing or Perfetto (inspect it with
 * tools/smash_trace).
 */

#include <fstream>
#include <future>
#include <iostream>
#include <vector>

#include "common/parallel_exec.hh"
#include "engine/dispatch.hh"
#include "engine/format.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
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

serve::Priority
mixedPriority(Index r)
{
    const Index slot = r % 8;
    if (slot == 0)
        return serve::Priority::kHigh;
    return slot <= 4 ? serve::Priority::kNormal
                     : serve::Priority::kBatch;
}

} // namespace

int
main()
{
    // 1. Arm tracing before any traffic (SMASH_TRACE=1 in the
    //    environment does the same at startup). Everything below
    //    records 32-byte events into per-thread rings.
    obs::setTraceEnabled(true);

    serve::MatrixRegistry registry;
    const eng::Format chosen = registry.put(
        "ranker", wl::genWithLocality(1024, 1024, 16000, 8, 0.9, 5));
    std::cout << "registered 'ranker' as " << eng::toString(chosen)
              << "\n";

    // 2. Serve mixed-priority SpMV traffic: each request is one
    //    pool task, and a free worker takes the oldest kHigh
    //    request first, then kNormal, then kBatch. Every request
    //    records its prepare and compute spans and its delivery.
    serve::SessionOptions options;
    options.threads = 4;
    {
        serve::Session session(registry, options);
        std::vector<std::future<serve::Result<std::vector<Value>>>>
            futures;
        for (Index r = 0; r < 64; ++r) {
            serve::RequestOptions ropts;
            ropts.priority = mixedPriority(r);
            futures.push_back(session.submit(serve::SpmvRequest{
                "ranker", operand(1024, r % 8), ropts}));
        }
        for (auto& f : futures)
            if (!f.get().ok())
                return 1;

        // 3. The span stamps every request carried become per-stage
        //    latency histograms: where did a request's lifetime go?
        std::cout << "\nPer-stage latency (64 requests):\n";
        for (std::size_t s = 0; s < serve::kNumPipelineStages; ++s) {
            const auto stage = static_cast<serve::PipelineStage>(s);
            const obs::Histogram& h =
                session.stats().stage(stage);
            std::cout << "  " << serve::toString(stage) << ": p50 "
                      << h.percentile(0.5) << " us, p99 "
                      << h.percentile(0.99) << " us\n";
        }
        const auto queue_us = session.stats().queueUs();
        const auto compute_us = session.stats().computeUs();
        std::cout << "  queue " << queue_us << " us vs compute "
                  << compute_us << " us total\n";
        session.drain();
    } // session + pool torn down: trace writers quiesced

    // 4. Served requests compute serially, one per worker. The
    //    engine's parallel driver, called on the served encoding,
    //    builds a partition plan on its first call (plan_cache
    //    "miss") and reuses it on the next ("hit").
    {
        exec::ParallelExec pe(options.threads);
        const serve::MatrixRegistry::EncodingPtr enc =
            registry.encoded("ranker");
        for (Index r = 0; r < 2; ++r) {
            std::vector<Value> y(1024, Value(0));
            eng::spmv(enc->ref(), operand(1024, r), y, pe);
        }
    }

    // 5. The Prometheus text exposition — the same bytes
    //    `smash_serverd`'s /metrics endpoint serves.
    std::cout << "\n--- metrics exposition ---\n";
    obs::MetricsRegistry::global().exportText(std::cout);

    // 6. The event trace as Chrome trace-event JSON: load in
    //    chrome://tracing / Perfetto, or run
    //    `tools/smash_trace --validate observability_trace.json`.
    const obs::TraceCollector& tc = obs::TraceCollector::global();
    std::ofstream trace("observability_trace.json");
    tc.dumpJson(trace);
    std::cout << "\nwrote " << tc.retained() << " trace events ("
              << tc.dropped()
              << " dropped by ring wrap) to observability_trace.json\n";
    return 0;
}
