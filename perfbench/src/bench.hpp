/**
 * @file
 * Shared pieces of the benchmark runner: run options, the result
 * report every workload fills, host-side clocks, supported quantiles
 * and the in-memory span recorder used by the traced runs.
 *
 * Spans are recorded by the benchmark around calls into each layer's
 * public functions; the program itself is not instrumented further.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one runner invocation. */
struct Options
{
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for run artifacts (pose CSVs, span dumps). */
    std::string out_dir = ".";
};

/** Everything one run reports; serialized as one JSON object. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A correctness check; any failed check fails the run. */
    void check(const std::string &name, bool ok,
               const std::string &detail);
    /** Free-form context (digests, shares, sample counts). */
    void note(const std::string &name, const std::string &value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool allChecksPassed() const;
    std::string json() const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    struct Check
    {
        std::string name;
        bool ok = false;
        std::string detail;
    };
    std::map<std::string, Metric> metrics_;
    std::vector<Check> checks_;
    std::map<std::string, std::string> notes_;
};

/**
 * A VIO trajectory further than this from ground truth (ATE RMSE) is a
 * diverged filter: the run fails its output check, whatever its speed.
 * Healthy 10 s lab-walk replays stayed under 71 cm on 248 seeded
 * datasets.
 */
constexpr double kAteCeilingCm = 200.0;

/**
 * Dataset seed of the @p index-th input of a run with seed @p seed. A
 * run averages over several inputs, so its numbers do not rest on one
 * head path; the same seed always gives the same inputs.
 */
unsigned subSeed(unsigned seed, std::size_t index);

/** Steady-clock nanoseconds. */
std::int64_t nowNs();

/** CPU time of the whole process (all threads), seconds. */
double processCpuSeconds();

/** Peak resident set size of this process, MB. */
double peakRssMb();

double median(std::vector<double> values);

/**
 * Quantile @p q of @p samples (linear interpolation), or -1 when the
 * sample count does not meet quantileSupported(n, q): no percentile is
 * ever reported from a sample too small to have ten values beyond it.
 */
double supportedQuantile(const std::vector<double> &samples, double q);

/** FNV-1a 64-bit digest of a file's bytes, as hex ("" if unreadable). */
std::string fileDigest(const std::string &path);

std::string fmt(double value, int precision = 6);

/** One span: a named interval on one thread, nested by parent id. */
struct SpanRecord
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1; ///< Index of the enclosing span; -1 = root.
    std::int64_t frame = -1;  ///< Frame id (invocation time or index).
    std::int64_t arg = 0;     ///< Executor timestamp of the invocation.
};

/**
 * Thread-safe in-memory span store. Spans nest per thread: a span
 * opened while another is open on the same thread becomes its child.
 * Nothing is written until dump().
 */
class SpanRecorder
{
  public:
    std::size_t open(const std::string &name, std::int64_t frame,
                     std::int64_t arg);
    void close(std::size_t id);

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** Self time of each span: its duration minus its children's. */
    static std::vector<std::int64_t>
    selfTimes(const std::vector<SpanRecord> &spans);

    /** Write `id,parent,name,frame,start_ns,end_ns,arg` CSV. */
    bool dump(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name,
               std::int64_t frame = -1, std::int64_t arg = 0)
        : recorder_(recorder), id_(recorder.open(name, frame, arg))
    {
    }
    ~ScopedSpan() { recorder_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    std::size_t id_;
};

/** Workload entry points. */
void runSponzaReplay(const Options &options, Report &report);
void runArLive(const Options &options, Report &report);

} // namespace perfbench
