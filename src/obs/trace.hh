/**
 * @file
 * Low-overhead event tracing: fixed 32-byte records written into
 * lock-free per-thread ring buffers, dumped as Chrome trace-event
 * JSON (chrome://tracing / Perfetto's legacy loader). Instrumented
 * subsystems: the ThreadPool (parallelFor batches, chunk claims and
 * steals, posted tasks), the serving pipeline (prepare/compute/
 * deliver of each request), the engine dispatch
 * (tile-path and ISA-level selections), the plan cache (hits and
 * misses), and the registry's encoding epoch swaps.
 *
 * Cost model: every instrumentation point is
 * `if (traceEnabled()) record(...)` — one relaxed atomic load and a
 * predicted-untaken branch when tracing is off (the default), and
 * one 32-byte store into a thread-private ring when on. Nothing
 * allocates after a thread's first recorded event. Defining
 * SMASH_TRACE_COMPILED_OUT at build time compiles the macros to
 * nothing for a zero-instruction baseline.
 *
 * Toggles: the SMASH_TRACE environment variable (1/on/true) arms
 * recording at startup; setTraceEnabled() flips it at runtime (the
 * perf A/B harness and tests).
 *
 * Ownership/threading contract: rings are owned by the global
 * TraceCollector and live for the process (a thread's ring survives
 * the thread). record() is wait-free and touches only the calling
 * thread's ring. dumpJson() reads every ring without stopping
 * writers — call it after quiescing instrumented activity (drain
 * sessions / join pools) for a self-consistent dump; each ring
 * keeps its newest kRingCapacity events, older ones are counted as
 * dropped.
 */

#ifndef SMASH_OBS_TRACE_HH
#define SMASH_OBS_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace smash::obs
{

/** What one trace record describes (the cat/name of its JSON
 *  event). Values are stable — they appear in dumped traces. */
enum class EventKind : std::uint16_t
{
    kPoolBatch = 0,    //!< one parallelFor call (span)
    kPoolChunk = 1,    //!< one chunk claim (a0 chunk, a1 stolen)
    kPoolTask = 2,     //!< one posted task run (span)
    // 3 and 4 are retired: dumped traces may still hold them, so
    // they are never reused.
    kPipelinePrepare = 5, //!< one request's encodings resolved
                          //!< (span; a0 op)
    kPipelineCompute = 6, //!< one request computed (span; a0 op)
    kPipelineDeliver = 7, //!< one request resolved (a0 ok)
    kDispatch = 8,        //!< kernel dispatch (a0 format, a1 isa,
                          //!< a2 path)
    kPlanCacheHit = 9,    //!< plan served from cache (a0 kind)
    kPlanCacheMiss = 10,  //!< plan built cold (a0 kind)
    // 11 is retired: dumped traces may still hold it, so it is
    // never reused.
    kNetFrameRx = 12,     //!< wire frame read (a0 op, a1 bytes)
    kNetFrameTx = 13,     //!< wire frame written (a0 op, a1 bytes)
    kNetConn = 14,        //!< connection lifecycle (a0 1=open
                          //!< 0=close, a1 transport)
    kShardScatter = 15,   //!< sharded compute fan-out (span;
                          //!< a0 shards, a1 rhs width)
    kShardGather = 16,    //!< one shard's slice copied into the
                          //!< caller's y (a0 shard, a1 rows)
    kShardReencode = 17,  //!< per-shard epoch swap (a0 shard,
                          //!< a1 new format)
};

/** Dispatch path shapes (kDispatch a2). Values 2 and 5 are
 *  retired; the others keep their numbers so older trace dumps
 *  still decode. */
enum class DispatchPath : std::uint32_t
{
    kSerial = 0,
    kRows = 1,
    kWordWalk = 3,
    kScatter = 4,
    kRowColTiles = 6,
};

/** One ring record. Fixed 32 bytes — a full ring is a few pages
 *  and a record write is one cache line. */
struct TraceEvent
{
    std::uint64_t ts_ns;  //!< since process trace epoch
    std::uint64_t dur_ns; //!< 0 for instant events
    std::uint32_t a0;
    std::uint32_t a1;
    std::uint32_t a2;
    std::uint16_t kind; //!< EventKind
    std::uint16_t tid;  //!< obs::threadId() of the writer
};
static_assert(sizeof(TraceEvent) == 32, "ring records must be 32B");

namespace detail
{
std::atomic<bool>& traceEnabledFlag();
} // namespace detail

/** Whether recording is armed (inline: the hot-path check). */
inline bool
traceEnabled()
{
    return detail::traceEnabledFlag().load(std::memory_order_relaxed);
}

/** Arm/disarm recording at runtime. */
void setTraceEnabled(bool enabled);

/** Nanoseconds since the process's trace epoch (steady clock). */
std::uint64_t traceNowNs();

/** Append one instant event to the calling thread's ring. */
void record(EventKind kind, std::uint32_t a0 = 0, std::uint32_t a1 = 0,
            std::uint32_t a2 = 0);

/** Append one span event: [start_ns, now] with @p start_ns from an
 *  earlier traceNowNs(). */
void recordSpan(EventKind kind, std::uint64_t start_ns,
                std::uint32_t a0 = 0, std::uint32_t a1 = 0,
                std::uint32_t a2 = 0);

/** Owner of every thread's ring; the dump side of the tracer. */
class TraceCollector
{
  public:
    /** Events one thread's ring retains before overwriting. */
    static constexpr std::size_t kRingCapacity = 4096;

    static TraceCollector& global();

    TraceCollector();
    ~TraceCollector();
    TraceCollector(const TraceCollector&) = delete;
    TraceCollector& operator=(const TraceCollector&) = delete;

    /** Chrome trace-event JSON of every retained event, oldest
     *  first. Quiesce instrumented activity before calling. */
    void dumpJson(std::ostream& os) const;

    /** Events overwritten by ring wraparound so far. */
    std::uint64_t dropped() const;

    /** Events currently retained across all rings. */
    std::uint64_t retained() const;

    /** Forget every recorded event (test isolation). Only safe
     *  when no instrumented activity is running. */
    void clear();

  private:
    friend void record(EventKind, std::uint32_t, std::uint32_t,
                       std::uint32_t);
    friend void recordSpan(EventKind, std::uint64_t, std::uint32_t,
                           std::uint32_t, std::uint32_t);
    struct Ring;
    struct Impl;
    Ring& ringForThisThread();
    Impl* impl_;
};

/**
 * Minimal structural JSON validity check (objects, arrays, strings,
 * numbers, literals — no semantics). Shared by tools/smash_trace
 * and the test suite so a dumped trace can be checked without an
 * external parser. Returns false and fills @p error at the first
 * syntax violation.
 */
bool validateJson(std::string_view text, std::string& error);

} // namespace smash::obs

/**
 * Instrumentation macros: compile to nothing under
 * SMASH_TRACE_COMPILED_OUT, otherwise to a branch on the runtime
 * flag. Use these (not record() directly) at every hot-path site.
 */
#ifdef SMASH_TRACE_COMPILED_OUT
#define SMASH_TRACE_EVENT(...) ((void)0)
#define SMASH_TRACE_SPAN(...) ((void)0)
#else
#define SMASH_TRACE_EVENT(...)                                       \
    do {                                                             \
        if (smash::obs::traceEnabled())                              \
            smash::obs::record(__VA_ARGS__);                         \
    } while (0)
#define SMASH_TRACE_SPAN(...)                                        \
    do {                                                             \
        if (smash::obs::traceEnabled())                              \
            smash::obs::recordSpan(__VA_ARGS__);                     \
    } while (0)
#endif

#endif // SMASH_OBS_TRACE_HH
