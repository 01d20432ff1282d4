#include "xr/illixr_system.hpp"

#include "xr/plugins.hpp"

namespace illixr {

double
IntegratedResult::achievedHz(const std::string &name) const
{
    auto it = tasks.find(name);
    if (it == tasks.end() || config.duration <= 0)
        return 0.0;
    return it->second.achievedHz(config.duration);
}

bool
parseExecutorKind(const std::string &name, ExecutorKind &out)
{
    if (name == "sim") {
        out = ExecutorKind::Sim;
        return true;
    }
    if (name == "pool") {
        out = ExecutorKind::Pool;
        return true;
    }
    return false;
}

const char *
executorKindName(ExecutorKind kind)
{
    return kind == ExecutorKind::Pool ? "pool" : "sim";
}

std::unique_ptr<ResilienceContext>
makeResilienceContext(const IntegratedConfig &config,
                      Switchboard &switchboard, MetricsRegistry *metrics)
{
    if (!config.resilience.enabled())
        return nullptr;
    ResilienceConfig rcfg = config.resilience;
    // Topic faults default to the sensor streams: a plan that asks
    // for drops/corruption without naming topics hits camera + imu.
    if (rcfg.fault_plan.topics.empty() &&
        (rcfg.fault_plan.drop_rate > 0.0 ||
         rcfg.fault_plan.corrupt_rate > 0.0))
        rcfg.fault_plan.topics = {topics::kCamera, topics::kImu};
    auto ctx = std::make_unique<ResilienceContext>(rcfg, switchboard,
                                                   metrics);
    if (ctx->injector())
        registerSensorCorrupters(*ctx->injector());
    return ctx;
}

void
exportResilienceExtras(ResilienceContext *ctx,
                       std::map<std::string, double> &extra)
{
    if (!ctx)
        return;
    if (FaultInjector *inj = ctx->injector()) {
        extra["injected_faults"] =
            static_cast<double>(inj->injectedTotal());
        extra["injected_crashes"] =
            static_cast<double>(inj->injectedCrashes());
        extra["injected_drops"] =
            static_cast<double>(inj->injectedDrops());
    }
    if (Supervisor *sup = ctx->supervisor()) {
        extra["plugin_restarts"] = static_cast<double>(sup->restarts());
        extra["plugin_exceptions"] =
            static_cast<double>(sup->exceptionsSeen());
    }
    if (DegradationPlugin *deg = ctx->degradationPlugin()) {
        extra["degradation_max_level"] =
            static_cast<double>(deg->maxLevelReached());
    }
}

// runIntegrated() lives in session.cpp: it is the thin one-session
// wrapper over the Session lifecycle (see xr/session.hpp).

} // namespace illixr
