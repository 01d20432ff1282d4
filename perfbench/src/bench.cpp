#include "bench.hpp"

#include "foundation/stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::size_t> t_open_spans;

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back(Check{name, ok, detail});
}

void
Report::note(const std::string &name, const std::string &value)
{
    notes_[name] = value;
}

bool
Report::allChecksPassed() const
{
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check &c) { return c.ok; });
}

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : metrics_) {
        // Non-finite values cannot be written as JSON numbers; they are
        // refused downstream as a missing metric.
        out << sep << jsonString(name) << ": {\"value\": "
            << (std::isfinite(m.value) ? fmt(m.value, 12) : "null")
            << ", \"unit\": " << jsonString(m.unit) << "}";
        sep = ", ";
    }
    out << "}, \"checks\": [";
    sep = "";
    for (const Check &c : checks_) {
        out << sep << "{\"name\": " << jsonString(c.name)
            << ", \"ok\": " << (c.ok ? "true" : "false")
            << ", \"detail\": " << jsonString(c.detail) << "}";
        sep = ", ";
    }
    out << "], \"notes\": {";
    sep = "";
    for (const auto &[name, value] : notes_) {
        out << sep << jsonString(name) << ": " << jsonString(value);
        sep = ", ";
    }
    out << "}}";
    return out.str();
}

unsigned
subSeed(unsigned seed, std::size_t index)
{
    // splitmix64 finalizer over (seed, index).
    std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) + index +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<unsigned>((z ^ (z >> 31)) & 0xffffffffu);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
supportedQuantile(const std::vector<double> &samples, double q)
{
    if (samples.empty() || !illixr::quantileSupported(samples.size(), q))
        return -1.0;
    illixr::SampleSeries series;
    for (double s : samples)
        series.add(s);
    return series.percentile(100.0 * q);
}

std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::uint64_t h = 1469598103934665603ULL;
    for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
        h ^= static_cast<unsigned char>(*it);
        h *= 1099511628211ULL;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    return buf;
}

std::size_t
SpanRecorder::open(const std::string &name, std::int64_t frame,
                   std::int64_t arg)
{
    SpanRecord span;
    span.name = name;
    span.frame = frame;
    span.arg = arg;
    span.parent = t_open_spans.empty()
                      ? -1
                      : static_cast<std::int64_t>(t_open_spans.back());
    std::size_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = spans_.size();
        spans_.push_back(std::move(span));
    }
    t_open_spans.push_back(id);
    // Stamp last, so the bookkeeping above is not charged to the span.
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].start_ns = start;
    return id;
}

void
SpanRecorder::close(std::size_t id)
{
    const std::int64_t end = nowNs();
    if (!t_open_spans.empty() && t_open_spans.back() == id)
        t_open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_ns = end;
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::int64_t>
SpanRecorder::selfTimes(const std::vector<SpanRecord> &spans)
{
    // Children nest inside their parent on one thread and never
    // overlap each other, so the covered part is their plain sum.
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_ns - spans[i].start_ns;
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
    return self;
}

bool
SpanRecorder::dump(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "id,parent,name,frame,start_ns,end_ns,arg\n";
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << i << ',' << s.parent << ',' << s.name << ',' << s.frame
            << ',' << s.start_ns << ',' << s.end_ns << ',' << s.arg
            << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
