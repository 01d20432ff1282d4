#include "resilience/resilience.hpp"

namespace illixr {

ResilienceContext::ResilienceContext(const ResilienceConfig &config,
                                     Switchboard &switchboard,
                                     MetricsRegistry *metrics)
{
    if (config.fault_plan.active()) {
        injector_ =
            std::make_unique<FaultInjector>(config.fault_plan, metrics);
        switchboard.setPublishHook(injector_->makePublishHook());
    }
    if (config.supervise)
        supervisor_ = std::make_unique<Supervisor>(switchboard, metrics,
                                                   config.supervisor);
    if (config.degrade)
        degradation_ = std::make_unique<DegradationPlugin>(
            switchboard, metrics, config.degradation);
}

void
ResilienceContext::attach(Executor &executor)
{
    executor.setInterceptor(this);
    if (supervisor_)
        supervisor_->setPhonebook(executor.phonebook());
}

PreInvocationAction
ResilienceContext::before(Plugin &plugin, std::uint64_t attempt,
                          TimePoint now)
{
    if (supervisor_) {
        const PreInvocationAction held =
            supervisor_->before(plugin, attempt, now);
        if (held.suppress)
            return held;
    }
    if (injector_)
        return injector_->before(plugin, attempt, now);
    return {};
}

void
ResilienceContext::after(Plugin &plugin, TimePoint now,
                         const InvocationOutcome &outcome)
{
    if (injector_)
        injector_->after(plugin, now, outcome);
    if (supervisor_)
        supervisor_->after(plugin, now, outcome);
}

} // namespace illixr
