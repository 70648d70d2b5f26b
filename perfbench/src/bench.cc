#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "common/cpu_features.hh"
#include "common/numa_topology.hh"
#include "common/rng.hh"
#include "engine/dispatch.hh"
#include "sim/exec_model.hh"

namespace perfbench
{

using namespace smash;

std::int64_t
nowNs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

WindowStats
windowed(const std::vector<Sample>& samples, double seconds)
{
    const int n = std::max(1, static_cast<int>(std::lround(seconds)));
    const double width = seconds / n;
    std::vector<std::vector<double>> latency(static_cast<std::size_t>(n));
    std::vector<double> ok(static_cast<std::size_t>(n), 0);
    for (const Sample& s : samples) {
        const auto w = static_cast<std::size_t>(
            std::clamp(static_cast<int>(s.atS / width), 0, n - 1));
        latency[w].push_back(s.latencyUs);
        ok[w] += s.ok ? 1 : 0;
    }
    std::vector<double> p50, p90, rate;
    for (std::size_t w = 0; w < latency.size(); ++w) {
        if (latency[w].empty())
            continue;
        p50.push_back(quantile(latency[w], 0.5));
        p90.push_back(quantile(latency[w], 0.9));
        rate.push_back(ok[w] / width);
    }
    return {median(p50), median(p90), median(rate)};
}

// --- Tally. ---

void
Tally::merge(const Tally& other)
{
    ok_ += other.ok_;
    for (const auto& [why, n] : other.failed_)
        failed_[why] += n;
}

std::uint64_t
Tally::failedCount() const
{
    std::uint64_t n = 0;
    for (const auto& [why, count] : failed_)
        n += count;
    return n;
}

std::string
statusName(const serve::Status& status)
{
    return serve::toString(status.code());
}

// --- Spans. ---

void
SpanLog::absorb(std::vector<Span>& spans)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    spans.clear();
}

bool
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        return false;
    const std::size_t n = std::min(spans_.size(), kMaxWrittenSpans);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans_[i];
        os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", "
           << "\"ts\": " << static_cast<double>(s.startNs) / 1000.0
           << ", \"dur\": "
           << static_cast<double>(s.endNs - s.startNs) / 1000.0
           << ", \"pid\": 1, \"tid\": 1, \"args\": {\"request\": "
           << s.request << ", \"parent\": \"" << s.parent << "\"}}"
           << (i + 1 < n ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

// --- Inputs. ---

namespace
{

/** splitmix64: a stateless hash for per-entry values. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

fmt::CooMatrix
patternMatrix(Index rows, Index cols, Index per_row, std::uint64_t seed)
{
    fmt::CooMatrix coo(rows, cols);
    const auto offset = static_cast<Index>(seed % 1021);
    for (Index r = 0; r < rows; ++r)
        for (Index k = 0; k < per_row; ++k)
            coo.add(r, (r * 5 + k * 7 + offset) % cols,
                    dyadic(mix(seed ^ static_cast<std::uint64_t>(
                                          r * per_row + k))));
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
raggedMatrix(Index n, Index min_per_row, Index max_per_row,
             std::uint64_t seed)
{
    fmt::CooMatrix coo(n, n);
    const auto offset = static_cast<Index>(seed % 1021);
    const auto span = static_cast<std::uint64_t>(max_per_row - min_per_row + 1);
    for (Index r = 0; r < n; ++r) {
        const std::uint64_t h = mix(seed * 31 + static_cast<std::uint64_t>(r));
        const Index per_row = min_per_row + static_cast<Index>(h % span);
        for (Index k = 0; k < per_row; ++k)
            coo.add(r, (r * 5 + k * 7 + offset) % n, dyadic(h >> (k % 60)));
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
clusteredMatrix(Index n, Index runs, Index run_len, std::uint64_t seed)
{
    fmt::CooMatrix coo(n, n);
    const Index band = std::max<Index>(run_len * 4, n / 16 + run_len);
    Rng rng(seed, 0x5eed);
    for (Index r = 0; r < n; ++r) {
        const Index lo = std::max<Index>(0, r - band);
        const Index hi = std::min<Index>(n - run_len, r + band);
        for (Index k = 0; k < runs; ++k) {
            const Index c0 = lo +
                static_cast<Index>(rng.below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
            for (Index j = 0; j < run_len; ++j)
                coo.add(r, c0 + j, dyadic(rng.nextU64()));
        }
    }
    // Overlapping runs sum their (dyadic) values: still exact.
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
bandedMatrix(Index n, Index diagonals, std::uint64_t seed)
{
    fmt::CooMatrix coo(n, n);
    const Index half = diagonals / 2;
    for (Index r = 0; r < n; ++r)
        for (Index d = -half; d < diagonals - half; ++d) {
            const Index c = r + d;
            if (c >= 0 && c < n)
                coo.add(r, c,
                        dyadic(mix(seed * 131 +
                                   static_cast<std::uint64_t>(
                                       r * diagonals + d + half))));
        }
    coo.canonicalize();
    return coo;
}

std::vector<Value>
dyadicVector(Index n, std::uint64_t variant)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j)
        x[static_cast<std::size_t>(j)] =
            dyadic(mix(variant * 0x100000001b3ULL +
                       static_cast<std::uint64_t>(j)));
    return x;
}

std::vector<Value>
oracleSpmv(const fmt::CsrMatrix& a, const std::vector<Value>& x)
{
    sim::NativeExec e;
    std::vector<Value> y(static_cast<std::size_t>(a.rows()), Value(0));
    eng::spmv(a, x, y, e);
    return y;
}

bool
sameBits(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0);
}

void
corrupt(std::vector<Value>& v)
{
    if (v.empty())
        return;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v[0], sizeof bits);
    bits ^= 1;
    std::memcpy(&v[0], &bits, sizeof bits);
}

OracleSet
makeOracleSet(const fmt::CsrMatrix& a, int count, std::uint64_t seed,
              bool break_oracle)
{
    OracleSet set;
    for (int i = 0; i < count; ++i) {
        set.x.push_back(dyadicVector(
            a.cols(), seed * 1000 + static_cast<std::uint64_t>(i)));
        set.y.push_back(oracleSpmv(a, set.x.back()));
    }
    if (break_oracle)
        corrupt(set.y[0]);
    return set;
}

// --- Process facts. ---

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB → MiB
}

std::string
envJson()
{
    const sys::NumaTopology& numa = sys::NumaTopology::probe();
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"numa_nodes\": " << numa.nodeCount()
       << ", \"isa_active\": \""
       << simd::toString(simd::activeIsaLevel())
       << "\", \"isa_detected\": \""
       << simd::toString(simd::detectedIsaLevel()) << "\"}";
    return os.str();
}

} // namespace perfbench
