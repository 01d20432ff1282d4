/**
 * @file
 * ResilienceContext: one object that owns and wires the whole
 * resilience subsystem for a run — the FaultInjector, the Supervisor,
 * and the DegradationManager — so call sites (the integrated system,
 * the offloaded variant, the live demo) enable it with three lines
 * instead of re-plumbing hooks.
 *
 * The context itself is the InvocationInterceptor the executor sees;
 * it chains the pieces in the only order that makes sense:
 *
 *   1. Supervisor::before  — a down plugin is suppressed (or
 *      restarted) before any fault can fire on it;
 *   2. FaultInjector::before — faults apply to live plugins only;
 *   3. (guarded invocation runs)
 *   4. Supervisor::after   — sees real *and* injected exceptions, so
 *      injected crashes exercise the same recovery path real ones do.
 */

#pragma once

#include "resilience/degradation.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/executor.hpp"

#include <memory>

namespace illixr {

/** Everything a run needs to decide about resilience, in one bag. */
struct ResilienceConfig
{
    FaultPlan fault_plan;

    bool supervise = false;
    SupervisorPolicy supervisor;

    bool degrade = false;
    DegradationPolicy degradation;

    /** Anything to set up at all? */
    bool
    enabled() const
    {
        return fault_plan.active() || supervise || degrade;
    }
};

class ResilienceContext final : public InvocationInterceptor
{
  public:
    /**
     * Build the enabled pieces. The injector's publish hook is
     * installed on @p switchboard immediately (it is inert for topics
     * outside the plan); the invocation side attaches via attach().
     */
    ResilienceContext(const ResilienceConfig &config,
                      Switchboard &switchboard, MetricsRegistry *metrics);

    /**
     * Attach to an executor: installs this context as the
     * interceptor and hands the executor's phonebook to the
     * Supervisor for restarts. The DegradationPlugin is NOT added
     * here — the caller registers degradationPlugin() like any other
     * plugin, so it lands on the right lane/period.
     */
    void attach(Executor &executor);

    // ---- InvocationInterceptor (the chained boundary) ----

    PreInvocationAction before(Plugin &plugin, std::uint64_t attempt,
                               TimePoint now) override;

    void after(Plugin &plugin, TimePoint now,
               const InvocationOutcome &outcome) override;

    // ---- the pieces (nullptr when not enabled) ----

    FaultInjector *injector() { return injector_.get(); }
    Supervisor *supervisor() { return supervisor_.get(); }
    DegradationPlugin *degradationPlugin() { return degradation_.get(); }

  private:
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<Supervisor> supervisor_;
    std::unique_ptr<DegradationPlugin> degradation_;
};

} // namespace illixr
