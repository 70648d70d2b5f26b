/**
 * @file
 * Shared pieces of the served-stack benchmark: run options, the
 * result record, order statistics, the span log of the traced run,
 * the seeded dyadic matrix generators and the bit-exact oracle.
 *
 * Every matrix and vector the benchmark builds is dyadic: values
 * are small multiples of 2^-4, so every product and every partial
 * sum of an SpMV row is exact in IEEE-754 doubles. The served answer
 * therefore equals a local eng::spmv bit for bit, whatever the
 * format, summation order, batch width, shard count or ISA level
 * that produced it, and the correctness gate is a memcmp.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "serve/result.hh"

namespace perfbench
{

using smash::Index;
using smash::Value;
using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test hook: corrupt one oracle value so the gate must
     *  report a mismatch. */
    bool breakOracle = false;
    /** Directory (relative to the working directory) for the
     *  run's socket and trace files. */
    std::string workDir = ".bench_build/run";
};

/** Microseconds between two time points. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Nanoseconds since an arbitrary process-wide origin. */
std::int64_t nowNs();

/** Linear-interpolated quantile of @p v (0 when empty); sorts a
 *  copy. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Wall time of one call of @p fn, in microseconds. */
template <typename Fn>
double
timeUs(Fn&& fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return usBetween(t0, Clock::now());
}

/** One request as a measurement phase saw it. */
struct Sample
{
    double atS = 0;       //!< when it was due or completed, from phase start
    double latencyUs = 0; //!< kFailedLatencyUs when it failed
    bool ok = false;
};

/** Latency recorded for a request that failed or never answered:
 *  it misses any latency limit. */
inline constexpr double kFailedLatencyUs = 1e9;

/** A phase's end-to-end figures as medians over its windows. */
struct WindowStats
{
    double p50Us = 0;
    double p90Us = 0;
    double okPerS = 0;
};

/**
 * Split a phase of @p seconds into windows of about one second and
 * report the median over windows of each window's p50, p90 and ok
 * rate. A short burst of interference from outside the process (CPU
 * steal on a shared host) then moves a few windows, not the figure.
 */
WindowStats windowed(const std::vector<Sample>& samples, double seconds);

/** One named metric of the result. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Request accounting of one workload: every request the benchmark
 *  issued, by outcome. A failed request is any non-ok status, a
 *  transport failure, a missing answer or a wrong answer. */
class Tally
{
  public:
    void ok() { ++ok_; }
    void fail(const std::string& why) { ++failed_[why]; }
    void merge(const Tally& other);

    std::uint64_t okCount() const { return ok_; }
    std::uint64_t failedCount() const;
    std::uint64_t attempted() const { return ok_ + failedCount(); }
    const std::map<std::string, std::uint64_t>& failedBy() const
    {
        return failed_;
    }

  private:
    std::uint64_t ok_ = 0;
    std::map<std::string, std::uint64_t> failed_;
};

/** Name of a status code as the tally records it. */
std::string statusName(const smash::serve::Status& status);

/** One client-side span: a call from the benchmark into a module's
 *  public function. Spans of one request share its id; @p parent
 *  names the span that caused this one (empty at the top). */
struct Span
{
    const char* name = "";
    const char* parent = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t request = 0;
};

/** Spans kept in memory for the run, written out at its end. Each
 *  recording thread appends to its own buffer (no lock on the hot
 *  path) and hands it over with absorb(). */
class SpanLog
{
  public:
    void absorb(std::vector<Span>& spans);
    /** Spans written out at most (the first ones recorded), so a
     *  trace file stays a few MB. */
    static constexpr std::size_t kMaxWrittenSpans = 20000;
    /** Chrome trace-event JSON of every span. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: records into @p sink when it is non-null (the traced
 *  phase), costs one branch otherwise. */
class ScopedSpan
{
  public:
    ScopedSpan(std::vector<Span>* sink, const char* name,
               std::uint64_t request = 0, const char* parent = "")
        : sink_(sink)
    {
        if (sink_) {
            span_.name = name;
            span_.parent = parent;
            span_.request = request;
            span_.startNs = nowNs();
        }
    }
    ~ScopedSpan()
    {
        if (sink_) {
            span_.endNs = nowNs();
            sink_->push_back(span_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    std::vector<Span>* sink_;
    Span span_;
};

// --- Inputs. ---

/** Dyadic value in [1, 2): 1 + (h mod 16) / 16. */
inline Value
dyadic(std::uint64_t h)
{
    return Value(1) + Value(h % 16) * Value(0.0625);
}

/** Small "ranker" matrix: @p per_row entries a row on a strided
 *  pattern offset by the seed (the net/demo_matrices idiom, at a
 *  larger scale). */
smash::fmt::CooMatrix patternMatrix(Index rows, Index cols,
                                    Index per_row,
                                    std::uint64_t seed);

/** patternMatrix() with a seeded row length in [@p min_per_row,
 *  @p max_per_row] (the §7.2.3 rules pick CSR for it: its rows are
 *  too uneven for ELL). */
smash::fmt::CooMatrix raggedMatrix(Index n, Index min_per_row,
                                   Index max_per_row,
                                   std::uint64_t seed);

/** Clustered matrix: every row holds @p runs runs of @p run_len
 *  consecutive columns near the diagonal band, placed by the seed.
 *  Its NZA blocks are mostly full, so the §7.2.3 rules pick kSmash
 *  for it (the BENCH_9 regime). */
smash::fmt::CooMatrix clusteredMatrix(Index n, Index runs,
                                      Index run_len,
                                      std::uint64_t seed);

/** Banded matrix: @p diagonals diagonals around the main one, the
 *  values drawn from the seed (the §7.2.3 rules pick kDia). */
smash::fmt::CooMatrix bandedMatrix(Index n, Index diagonals,
                                   std::uint64_t seed);

/** Dyadic x of length @p n; @p variant selects the values. */
std::vector<Value> dyadicVector(Index n, std::uint64_t variant);

/** The local oracle: y = A x through a serial eng::spmv on CSR. */
std::vector<Value> oracleSpmv(const smash::fmt::CsrMatrix& a,
                              const std::vector<Value>& x);

/** Bitwise equality of two result vectors. */
bool sameBits(const std::vector<Value>& a, const std::vector<Value>& b);

/** Flip the lowest mantissa bit of v[0] (the self-test's wrong
 *  oracle). */
void corrupt(std::vector<Value>& v);

/** Fixed x vectors and their oracle answers for one matrix. */
struct OracleSet
{
    std::vector<std::vector<Value>> x;
    std::vector<std::vector<Value>> y;
};

OracleSet makeOracleSet(const smash::fmt::CsrMatrix& a, int count,
                        std::uint64_t seed, bool break_oracle);

// --- Process facts. ---

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** nproc, NUMA node count and active kernel ISA, as one JSON
 *  object. */
std::string envJson();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
