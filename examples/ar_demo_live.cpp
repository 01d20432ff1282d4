/**
 * @file
 * Live-runtime example: runs the plugin set on the live worker-pool
 * PoolExecutor (wall-clock periods) instead of the discrete-event
 * scheduler — the §II-B "live system" mode of the runtime,
 * demonstrated for two wall-clock seconds with the sparse AR
 * application. `--workers=N` selects the pool size.
 *
 * `--fault-plan=SPEC` injects faults from a parseFaultPlan() spec
 * (e.g. "seed=7,crash=0.01,stall=0.02,drop=0.05") and
 * `--resilience` turns on plugin supervision + graceful degradation,
 * demonstrating chaos on the live runtime.
 */

#include "resilience/resilience.hpp"
#include "runtime/pool_executor.hpp"
#include "trace/trace.hpp"
#include "trace/metrics_registry.hpp"
#include "xr/plugins.hpp"

#include <cstdio>
#include <cstring>
#include <string>

using namespace illixr;

int
main(int argc, char **argv)
{
    std::size_t workers = 4;
    ResilienceConfig rcfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--workers=", 0) == 0) {
            workers = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 10, nullptr, 10));
            if (workers == 0)
                workers = 1;
        } else if (arg.rfind("--fault-plan=", 0) == 0) {
            if (!parseFaultPlan(arg.substr(13), rcfg.fault_plan)) {
                std::fprintf(stderr, "bad --fault-plan spec\n");
                return 2;
            }
        } else if (arg == "--resilience") {
            rcfg.supervise = true;
            rcfg.degrade = true;
        } else {
            std::fprintf(stderr,
                         "usage: ar_demo_live [--workers=N] "
                         "[--fault-plan=SPEC] [--resilience]\n");
            return 2;
        }
    }

    std::printf("Live AR demo on the worker-pool runtime (2 s wall "
                "clock)\n\n");

    // Services.
    Phonebook phonebook;
    auto switchboard = std::make_shared<Switchboard>();
    phonebook.registerService(switchboard);

    DatasetConfig ds_cfg;
    ds_cfg.duration_s = 3.0;
    ds_cfg.image_width = 128;
    ds_cfg.image_height = 96;
    auto data =
        std::make_shared<PreloadedDataset>(ds_cfg, 3 * kSecond);
    phonebook.registerService(data);

    // Plugins (a scaled-down set to fit one core comfortably).
    SystemTuning tuning;
    tuning.imu_hz = 250.0;
    tuning.display_hz = 30.0;

    AppConfig app_cfg;
    app_cfg.eye_width = 48;
    app_cfg.eye_height = 48;

    CameraPlugin camera(phonebook, tuning);
    ImuPlugin imu(phonebook, tuning);
    IntegratorPlugin integrator(phonebook, tuning);
    ApplicationPlugin app(phonebook, tuning, AppId::ArDemo, app_cfg);
    TimewarpPlugin timewarp(phonebook, tuning, TimewarpParams{});
    AudioEncoderPlugin audio_enc(phonebook, tuning);
    AudioPlaybackPlugin audio_play(phonebook, tuning);

    // The live pool records into the same trace sink the
    // discrete-event scheduler uses (wall-clock spans).
    auto sink = std::make_shared<TraceSink>();
    switchboard->setTraceSink(sink);
    auto metrics = std::make_shared<MetricsRegistry>();

    // Optional chaos: fault plan, supervision, degradation.
    std::unique_ptr<ResilienceContext> resilience;
    if (rcfg.enabled()) {
        if (rcfg.fault_plan.topics.empty() &&
            (rcfg.fault_plan.drop_rate > 0.0 ||
             rcfg.fault_plan.corrupt_rate > 0.0))
            rcfg.fault_plan.topics = {topics::kCamera, topics::kImu};
        resilience = std::make_unique<ResilienceContext>(
            rcfg, *switchboard, metrics.get());
        if (resilience->injector())
            registerSensorCorrupters(*resilience->injector());
        std::printf("Resilience: %s\n\n",
                    faultPlanSummary(rcfg.fault_plan).c_str());
    }

    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = workers;
    PoolExecutor executor(pool_cfg);
    executor.setTraceSink(sink);
    executor.setMetrics(metrics.get());
    executor.setPhonebook(&phonebook);
    executor.addPlugin(&camera);
    executor.addPlugin(&imu);
    executor.addPlugin(&integrator);
    executor.addPlugin(&app);
    executor.addPlugin(&timewarp);
    executor.addPlugin(&audio_enc);
    executor.addPlugin(&audio_play);
    if (resilience) {
        resilience->attach(executor);
        if (resilience->degradationPlugin())
            executor.addPlugin(resilience->degradationPlugin());
    }

    executor.run(2 * kSecond);

    std::printf("Iterations over 2 s wall clock (%s timeline):\n",
                executor.timeline());
    for (const std::string &name : executor.taskNames()) {
        const TaskStats &stats = executor.stats(name);
        std::printf("  %-16s %4zu (%.1f Hz), exec %.2f ms, %zu skips\n",
                    name.c_str(), stats.invocations,
                    stats.achievedHz(2 * kSecond), stats.exec_ms.mean(),
                    stats.skips);
    }
    std::printf("\nSwitchboard topics:\n");
    for (const std::string &topic : switchboard->topicNames()) {
        std::printf("  %-16s %zu events\n", topic.c_str(),
                    switchboard->publishCount(topic));
    }

    if (resilience) {
        std::printf("\nResilience health summary:\n");
        if (FaultInjector *inj = resilience->injector())
            std::printf("  injected: %llu crashes, %llu stalls, "
                        "%llu spikes, %llu drops, %llu corruptions\n",
                        (unsigned long long)inj->injectedCrashes(),
                        (unsigned long long)inj->injectedStalls(),
                        (unsigned long long)inj->injectedSpikes(),
                        (unsigned long long)inj->injectedDrops(),
                        (unsigned long long)inj->injectedCorruptions());
        if (Supervisor *sup = resilience->supervisor())
            std::printf("  supervisor: %zu exceptions seen, "
                        "%zu restarts\n",
                        sup->exceptionsSeen(), sup->restarts());
        if (DegradationPlugin *deg = resilience->degradationPlugin())
            std::printf("  degradation: level %d now, max %d\n",
                        deg->level(), deg->maxLevelReached());
        std::printf("  health events on '%s': %zu\n",
                    topics::kHealth.c_str(),
                    switchboard->publishCount(topics::kHealth));
    }

    const char *trace_path = "/tmp/illixr_ar_live.trace.json";
    if (sink->writeChromeTrace(trace_path))
        std::printf("\nWrote %zu wall-clock spans to %s\n",
                    sink->spanCount(), trace_path);
    return 0;
}
