/**
 * @file
 * Benchmark runner: runs one workload and prints its report as one
 * JSON line on stdout. run.py builds this program, calls it and turns
 * the report into the benchmark's result line.
 *
 *   perfbench_runner --workload sponza-replay|ar-live
 *                    --seed N --seconds S --trace 0|1 --out DIR
 *
 *   perfbench_runner --self-test
 *
 * Exit code 0 when every output check passed, 1 when one failed,
 * 2 on a usage error.
 */

#include "bench.hpp"

#include "foundation/simd.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

/** Unit checks of the runner's own measurement helpers. */
int
selfTest()
{
    using namespace perfbench;
    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        std::printf("runner self-test %-4s %s\n", ok ? "ok" : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    std::vector<double> samples(999);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = static_cast<double>(i);
    expect(supportedQuantile(samples, 0.99) == -1.0,
           "no p99 from 999 samples");
    samples.push_back(999.0);
    expect(supportedQuantile(samples, 0.99) > 980.0,
           "p99 from 1000 samples");
    samples.resize(99);
    expect(supportedQuantile(samples, 0.90) == -1.0,
           "no p90 from 99 samples");
    samples.push_back(99.0);
    expect(supportedQuantile(samples, 0.50) == 49.5, "median interpolates");

    std::vector<SpanRecord> spans(3);
    spans[0] = {"frame", 0, 100, -1, 0, 0};
    spans[1] = {"tracker", 10, 40, 0, 0, 0};
    spans[2] = {"filter", 50, 60, 0, 0, 0};
    const std::vector<std::int64_t> self = SpanRecorder::selfTimes(spans);
    expect(self[0] == 60 && self[1] == 30 && self[2] == 10,
           "self time excludes child spans");

    SpanRecorder recorder;
    {
        ScopedSpan outer(recorder, "outer");
        ScopedSpan inner(recorder, "inner");
    }
    const std::vector<SpanRecord> nested = recorder.spans();
    expect(nested.size() == 2 && nested[0].parent == -1 &&
               nested[1].parent == 0 &&
               nested[1].start_ns >= nested[0].start_ns &&
               nested[1].end_ns <= nested[0].end_ns,
           "spans nest on one thread");

    Report report;
    report.metric("x", std::numeric_limits<double>::infinity(), "ms");
    expect(report.json().find("\"value\": null") != std::string::npos,
           "non-finite metric is written as null");
    return failures ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--self-test")
        return selfTest();

    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = static_cast<unsigned>(std::strtoul(value.c_str(),
                                                              nullptr, 10));
        else if (key == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--out")
            options.out_dir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || options.seconds <= 0.0)
        return usage();

    perfbench::Report report;
    report.note("host.cpu_model", cpuModel());
    report.note("host.nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.note("host.simd_backend", illixr::simd::backendName());
    report.note("host.build_type", PERFBENCH_BUILD_TYPE);
    report.note("workload", options.workload);
    report.note("seed", std::to_string(options.seed));
    report.note("trace", options.trace ? "1" : "0");

    try {
        if (options.workload == "sponza-replay")
            perfbench::runSponzaReplay(options, report);
        else if (options.workload == "ar-live")
            perfbench::runArLive(options, report);
        else
            return usage();
    } catch (const std::exception &e) {
        report.check("no_exception", false, e.what());
    }
    std::printf("%s\n", report.json().c_str());
    return report.allChecksPassed() ? 0 : 1;
}
