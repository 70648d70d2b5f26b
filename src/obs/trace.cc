#include "obs/trace.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace smash::obs
{

namespace detail
{

std::atomic<bool>&
traceEnabledFlag()
{
    static std::atomic<bool> flag = [] {
        const char* s = std::getenv("SMASH_TRACE");
        if (s == nullptr)
            return false;
        return std::strcmp(s, "1") == 0 || std::strcmp(s, "on") == 0 ||
            std::strcmp(s, "true") == 0;
    }();
    return flag;
}

} // namespace detail

void
setTraceEnabled(bool enabled)
{
    detail::traceEnabledFlag().store(enabled,
                                     std::memory_order_relaxed);
}

std::uint64_t
traceNowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

/** One thread's event storage. Writes touch only head and the
 *  slot it indexes; the dump side reads both without locks (callers
 *  quiesce first — see the header contract). */
struct TraceCollector::Ring
{
    std::array<TraceEvent, kRingCapacity> events{};
    std::atomic<std::uint64_t> head{0}; //!< total ever written
    std::uint16_t tid = 0;

    void
    push(const TraceEvent& e)
    {
        // This thread is the only writer: a relaxed read-modify-write
        // of head and a plain slot store suffice. The release store
        // publishes the slot for a (quiesced) dump.
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        events[h % kRingCapacity] = e;
        head.store(h + 1, std::memory_order_release);
    }
};

struct TraceCollector::Impl
{
    std::mutex mutex; //!< guards ring registration only
    std::vector<std::unique_ptr<Ring>> rings;
};

TraceCollector::TraceCollector() : impl_(new Impl) {}

TraceCollector::~TraceCollector()
{
    delete impl_;
}

TraceCollector&
TraceCollector::global()
{
    // Leaked: worker threads may record during static destruction.
    static TraceCollector* collector = new TraceCollector();
    return *collector;
}

TraceCollector::Ring&
TraceCollector::ringForThisThread()
{
    thread_local Ring* ring = [this] {
        auto owned = std::make_unique<Ring>();
        owned->tid = static_cast<std::uint16_t>(threadId());
        Ring* raw = owned.get();
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->rings.push_back(std::move(owned));
        return raw;
    }();
    return *ring;
}

void
record(EventKind kind, std::uint32_t a0, std::uint32_t a1,
       std::uint32_t a2)
{
    TraceCollector::Ring& ring =
        TraceCollector::global().ringForThisThread();
    TraceEvent e;
    e.ts_ns = traceNowNs();
    e.dur_ns = 0;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
    e.kind = static_cast<std::uint16_t>(kind);
    e.tid = ring.tid;
    ring.push(e);
}

void
recordSpan(EventKind kind, std::uint64_t start_ns, std::uint32_t a0,
           std::uint32_t a1, std::uint32_t a2)
{
    TraceCollector::Ring& ring =
        TraceCollector::global().ringForThisThread();
    const std::uint64_t now = traceNowNs();
    TraceEvent e;
    e.ts_ns = start_ns;
    e.dur_ns = now > start_ns ? now - start_ns : 0;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
    e.kind = static_cast<std::uint16_t>(kind);
    e.tid = ring.tid;
    ring.push(e);
}

std::uint64_t
TraceCollector::dropped() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::uint64_t total = 0;
    for (const auto& ring : impl_->rings) {
        const std::uint64_t h =
            ring->head.load(std::memory_order_acquire);
        if (h > kRingCapacity)
            total += h - kRingCapacity;
    }
    return total;
}

std::uint64_t
TraceCollector::retained() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::uint64_t total = 0;
    for (const auto& ring : impl_->rings)
        total += std::min<std::uint64_t>(
            ring->head.load(std::memory_order_acquire),
            kRingCapacity);
    return total;
}

void
TraceCollector::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto& ring : impl_->rings)
        ring->head.store(0, std::memory_order_release);
}

namespace
{

struct KindInfo
{
    const char* name;
    const char* cat;
};

KindInfo
kindInfo(std::uint16_t kind)
{
    switch (static_cast<EventKind>(kind)) {
      case EventKind::kPoolBatch: return {"parallelFor", "pool"};
      case EventKind::kPoolChunk: return {"chunk", "pool"};
      case EventKind::kPoolTask: return {"task", "pool"};
      case EventKind::kPipelinePrepare:
        return {"prepare", "pipeline"};
      case EventKind::kPipelineCompute:
        return {"compute", "pipeline"};
      case EventKind::kPipelineDeliver:
        return {"deliver", "pipeline"};
      case EventKind::kDispatch: return {"dispatch", "dispatch"};
      case EventKind::kPlanCacheHit: return {"hit", "plan_cache"};
      case EventKind::kPlanCacheMiss: return {"miss", "plan_cache"};
      case EventKind::kNetFrameRx: return {"rx", "net"};
      case EventKind::kNetFrameTx: return {"tx", "net"};
      case EventKind::kNetConn: return {"conn", "net"};
      case EventKind::kShardScatter: return {"scatter", "shard"};
      case EventKind::kShardGather: return {"gather", "shard"};
      case EventKind::kShardReencode: return {"reencode", "shard"};
    }
    return {"unknown", "unknown"};
}

const char*
dispatchPathName(std::uint32_t path)
{
    switch (static_cast<DispatchPath>(path)) {
      case DispatchPath::kSerial: return "serial";
      case DispatchPath::kRows: return "rows";
      case DispatchPath::kWordWalk: return "word_walk";
      case DispatchPath::kScatter: return "scatter";
      case DispatchPath::kRowColTiles: return "row_col_tiles";
    }
    return "unknown";
}

const char*
isaName(std::uint32_t level)
{
    switch (level) {
      case 0: return "scalar";
      case 1: return "avx2";
      case 2: return "avx512";
    }
    return "unknown";
}

/** The event's "args" object, with per-kind field names. */
void
writeArgs(std::ostream& os, const TraceEvent& e)
{
    switch (static_cast<EventKind>(e.kind)) {
      case EventKind::kPoolBatch:
        os << "{\"chunks\": " << e.a0 << ", \"span\": " << e.a1
           << "}";
        return;
      case EventKind::kPoolChunk:
        os << "{\"chunk\": " << e.a0 << ", \"stolen\": " << e.a1
           << "}";
        return;
      case EventKind::kPoolTask:
        os << "{}";
        return;
      case EventKind::kPipelinePrepare:
      case EventKind::kPipelineCompute:
        os << "{\"op\": " << e.a0 << "}";
        return;
      case EventKind::kPipelineDeliver:
        os << "{\"ok\": " << e.a0 << "}";
        return;
      case EventKind::kDispatch:
        os << "{\"format\": " << e.a0 << ", \"isa\": \""
           << isaName(e.a1) << "\", \"path\": \""
           << dispatchPathName(e.a2) << "\"}";
        return;
      case EventKind::kPlanCacheHit:
      case EventKind::kPlanCacheMiss:
        os << "{\"kind\": " << e.a0 << "}";
        return;
      case EventKind::kNetFrameRx:
      case EventKind::kNetFrameTx:
        os << "{\"op\": " << e.a0 << ", \"bytes\": " << e.a1 << "}";
        return;
      case EventKind::kNetConn:
        os << "{\"open\": " << e.a0 << ", \"transport\": " << e.a1
           << "}";
        return;
      case EventKind::kShardScatter:
        os << "{\"shards\": " << e.a0 << ", \"rhs\": " << e.a1 << "}";
        return;
      case EventKind::kShardGather:
        os << "{\"shard\": " << e.a0 << ", \"rows\": " << e.a1 << "}";
        return;
      case EventKind::kShardReencode:
        os << "{\"shard\": " << e.a0 << ", \"format\": " << e.a1
           << "}";
        return;
    }
    os << "{}";
}

/** Microsecond timestamp with nanosecond decimals (Chrome's unit). */
void
writeUs(std::ostream& os, std::uint64_t ns)
{
    os << ns / 1000 << '.' << static_cast<char>('0' + ns % 1000 / 100)
       << static_cast<char>('0' + ns % 100 / 10)
       << static_cast<char>('0' + ns % 10);
}

} // namespace

void
TraceCollector::dumpJson(std::ostream& os) const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (const auto& ring : impl_->rings) {
            const std::uint64_t head =
                ring->head.load(std::memory_order_acquire);
            const std::uint64_t n =
                std::min<std::uint64_t>(head, kRingCapacity);
            for (std::uint64_t i = head - n; i < head; ++i)
                events.push_back(
                    ring->events[i % kRingCapacity]);
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.ts_ns < b.ts_ns;
                     });
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        const KindInfo info = kindInfo(e.kind);
        os << (i == 0 ? "\n" : ",\n");
        os << "  {\"name\": \"" << info.name << "\", \"cat\": \""
           << info.cat << "\", \"ph\": \""
           << (e.dur_ns > 0 ? 'X' : 'i') << "\", \"ts\": ";
        writeUs(os, e.ts_ns);
        if (e.dur_ns > 0) {
            os << ", \"dur\": ";
            writeUs(os, e.dur_ns);
        } else {
            os << ", \"s\": \"t\"";
        }
        os << ", \"pid\": 1, \"tid\": " << e.tid << ", \"args\": ";
        writeArgs(os, e);
        os << "}";
    }
    os << "\n]}\n";
}

// --- Minimal JSON validity checker (tools + tests). ---

namespace
{

struct JsonParser
{
    std::string_view s;
    std::size_t i = 0;
    std::string* error;

    bool
    fail(const std::string& what)
    {
        if (error->empty())
            *error = what + " at byte " + std::to_string(i);
        return false;
    }

    void
    skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                s[i] == '\r'))
            ++i;
    }

    bool
    parseString()
    {
        if (s[i] != '"')
            return fail("expected string");
        ++i;
        while (i < s.size()) {
            const char c = s[i];
            if (c == '"') {
                ++i;
                return true;
            }
            if (c == '\\') {
                ++i;
                if (i >= s.size())
                    return fail("truncated escape");
                const char esc = s[i];
                if (esc == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i;
                        if (i >= s.size() ||
                            std::isxdigit(
                                static_cast<unsigned char>(s[i])) ==
                                0)
                            return fail("bad \\u escape");
                    }
                } else if (std::strchr("\"\\/bfnrt", esc) ==
                           nullptr) {
                    return fail("bad escape");
                }
                ++i;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            ++i;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber()
    {
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        if (i >= s.size() ||
            std::isdigit(static_cast<unsigned char>(s[i])) == 0)
            return fail("bad number");
        while (i < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[i])) != 0)
            ++i;
        if (i < s.size() && s[i] == '.') {
            ++i;
            if (i >= s.size() ||
                std::isdigit(static_cast<unsigned char>(s[i])) == 0)
                return fail("bad fraction");
            while (i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i])) !=
                       0)
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            if (i >= s.size() ||
                std::isdigit(static_cast<unsigned char>(s[i])) == 0)
                return fail("bad exponent");
            while (i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i])) !=
                       0)
                ++i;
        }
        return i > start;
    }

    bool
    parseLiteral(std::string_view lit)
    {
        if (s.substr(i, lit.size()) != lit)
            return fail("bad literal");
        i += lit.size();
        return true;
    }

    bool
    parseValue(int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (i >= s.size())
            return fail("unexpected end of input");
        switch (s[i]) {
          case '{': {
            ++i;
            skipWs();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            for (;;) {
                skipWs();
                if (!parseString())
                    return false;
                skipWs();
                if (i >= s.size() || s[i] != ':')
                    return fail("expected ':'");
                ++i;
                if (!parseValue(depth + 1))
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == '}') {
                    ++i;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++i;
            skipWs();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            for (;;) {
                if (!parseValue(depth + 1))
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == ']') {
                    ++i;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            return parseString();
          case 't':
            return parseLiteral("true");
          case 'f':
            return parseLiteral("false");
          case 'n':
            return parseLiteral("null");
          default:
            return parseNumber();
        }
    }
};

} // namespace

bool
validateJson(std::string_view text, std::string& error)
{
    error.clear();
    JsonParser p{text, 0, &error};
    if (!p.parseValue(0))
        return false;
    p.skipWs();
    if (p.i != text.size()) {
        p.fail("trailing content");
        return false;
    }
    return true;
}

} // namespace smash::obs
