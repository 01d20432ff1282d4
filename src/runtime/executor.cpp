#include "runtime/executor.hpp"

#include "foundation/profile.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <chrono>

namespace illixr {

double
TaskStats::achievedHz(Duration wall) const
{
    if (wall <= 0)
        return 0.0;
    return static_cast<double>(invocations) / toSeconds(wall);
}

Executor::TaskMetrics
Executor::internMetrics(const std::string &task)
{
    TaskMetrics m;
    if (!metrics_)
        return m;
    m.invocations = &metrics_->counter("task." + task + ".invocations");
    m.skips = &metrics_->counter("task." + task + ".skips");
    m.exceptions = &metrics_->counter("task." + task + ".exceptions");
    m.exec_ms = &metrics_->histogram("task." + task + ".exec_ms");
    return m;
}

InvocationOutcome
Executor::invokeGuarded(Plugin &plugin, std::uint64_t attempt,
                        TimePoint now, std::uint64_t span_id)
{
    InvocationOutcome out;
    PreInvocationAction pre;
    if (interceptor_)
        pre = interceptor_->before(plugin, attempt, now);
    out.extra = std::max<Duration>(0, pre.stall);
    out.duration_scale = std::max(1.0, pre.duration_scale);

    if (pre.suppress) {
        out.suppressed = true;
        if (interceptor_)
            interceptor_->after(plugin, now, out);
        return out;
    }

    // Route kernel.* metrics/spans launched by this invocation to THIS
    // executor's sinks: with several sessions per process, the
    // process-wide KernelPool cannot carry one global registry — the
    // scope makes kernel accounting per-session (thread-local, so
    // concurrent sessions never stomp each other's registries).
    KernelPool::MetricsScope kernel_scope(metrics_, sink_.get());

    TraceContext::beginInvocation(span_id, now);
    const double t0 = hostTimeSeconds();
    try {
        if (pre.crash)
            throw InjectedFault("injected fault: task '" + plugin.name() +
                                "', attempt " + std::to_string(attempt));
        plugin.iterate(now);
        out.ran = true;
    } catch (const std::exception &e) {
        out.exception = true;
        out.error = e.what();
    } catch (...) {
        out.exception = true;
        out.error = "non-standard exception";
    }
    out.host_seconds =
        std::max(0.0, hostTimeSeconds() - t0 -
                          plugin.consumeExcludedHostSeconds());
    // Close the scope on every path: an escaped exception must not
    // leave a poisoned consumed set for this thread's next invocation.
    TraceContext::endInvocation();

    if (interceptor_)
        interceptor_->after(plugin, now, out);
    return out;
}

void
Executor::requestStop()
{
    {
        // The lock orders the flag-store before any waiter's re-check:
        // without it a sleeper could test the flag, lose the CPU, miss
        // the notify, and wait out the full configured duration.
        std::lock_guard<std::mutex> lock(stop_request_mutex_);
        stop_requested_.store(true, std::memory_order_release);
    }
    stop_request_cv_.notify_all();
}

void
Executor::interruptibleSleep(Duration duration)
{
    if (duration <= 0)
        return;
    std::unique_lock<std::mutex> lock(stop_request_mutex_);
    stop_request_cv_.wait_for(
        lock, std::chrono::nanoseconds(duration), [this] {
            return stop_requested_.load(std::memory_order_acquire);
        });
}

void
Executor::startPlugins()
{
    if (started_)
        return;
    started_ = true;
    static const Phonebook empty;
    const Phonebook &pb = phonebook_ ? *phonebook_ : empty;
    for (Plugin *plugin : lifecycle_)
        plugin->start(pb);
}

void
Executor::stopPlugins()
{
    if (!started_)
        return;
    started_ = false;
    for (auto it = lifecycle_.rbegin(); it != lifecycle_.rend(); ++it)
        (*it)->stop();
}

} // namespace illixr
