#include "runtime/sim_scheduler.hpp"

#include "foundation/profile.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace illixr {

SimScheduler::SimScheduler(const PlatformModel &platform)
    : platform_(platform)
{
    cpuFreeAt_.assign(platform_.cpu_threads, 0);
}

void
SimScheduler::addPlugin(Plugin *plugin)
{
    Task t;
    t.plugin = plugin;
    t.stats.name = plugin->name();
    t.stats.unit = plugin->execUnit();
    t.stats.period = plugin->period();
    t.metrics = internMetrics(t.stats.name);
    notePlugin(plugin);
    tasks_.push_back(std::move(t));
}

void
SimScheduler::addVsyncAlignedPlugin(Plugin *plugin, Duration vsync)
{
    Task t;
    t.plugin = plugin;
    t.stats.name = plugin->name();
    t.stats.unit = plugin->execUnit();
    t.stats.period = vsync;
    t.vsync_aligned = true;
    t.vsync = vsync;
    t.metrics = internMetrics(t.stats.name);
    notePlugin(plugin);
    tasks_.push_back(std::move(t));
}

void
SimScheduler::scheduleArrival(std::size_t task_index, TimePoint t)
{
    queue_.push(SimEvent{t, seq_++, 0, task_index});
}

TimePoint
SimScheduler::acquireResource(ExecUnit unit, TimePoint earliest,
                              Duration duration)
{
    if (unit == ExecUnit::Cpu) {
        // Pick the hardware thread that frees up soonest.
        std::size_t best = 0;
        for (std::size_t i = 1; i < cpuFreeAt_.size(); ++i) {
            if (cpuFreeAt_[i] < cpuFreeAt_[best])
                best = i;
        }
        const TimePoint start = std::max(earliest, cpuFreeAt_[best]);
        cpuFreeAt_[best] = start + duration;
        cpuBusy_ += duration;
        return start;
    }
    // Single GPU queue serializes compute and graphics (the paper's
    // GPU contention between application, reprojection, and
    // GPU-compute components).
    const TimePoint start = std::max(earliest, gpuFreeAt_);
    gpuFreeAt_ = start + duration;
    gpuBusy_ += duration;
    return start;
}

void
SimScheduler::dispatch(std::size_t task_index, TimePoint arrival)
{
    Task &task = tasks_[task_index];

    // Execute the plugin for real and measure its host cost. The
    // invocation scope makes every switchboard read a causal input of
    // every publish, all stamped with this span's id. The guarded
    // call contains plugin exceptions and applies any interceptor
    // decision (suppression, injected crash/stall/spike).
    const std::uint64_t span_id = sink_ ? sink_->nextSpanId() : 0;
    const std::uint64_t attempt = ++task.stats.attempts;
    const InvocationOutcome out =
        invokeGuarded(*task.plugin, attempt, arrival, span_id);

    if (out.suppressed) {
        ++task.stats.suppressed;
        if (sink_)
            sink_->recordSkip(task.stats.name, arrival,
                              SkipCause::Suppressed);
        return;
    }
    if (out.exception) {
        ++task.stats.exceptions;
        if (task.metrics.exceptions)
            task.metrics.exceptions->add();
    }

    const double host_seconds = std::max(1e-9, out.host_seconds);
    Duration vdur =
        platform_.scaleDuration(host_seconds, task.plugin->execUnit());
    vdur = static_cast<Duration>(static_cast<double>(vdur) *
                                 out.duration_scale) +
           out.extra;
    const TimePoint start =
        acquireResource(task.plugin->execUnit(), arrival, vdur);
    const TimePoint completion = start + vdur;

    task.running = true;
    queue_.push(SimEvent{completion, seq_++, 1, task_index});

    InvocationRecord rec;
    rec.arrival = arrival;
    rec.start = start;
    rec.virtual_duration = vdur;
    rec.completion = completion;
    rec.host_seconds = host_seconds;
    if (task.vsync_aligned) {
        // The vsync this frame was aimed at: the next boundary at or
        // after the arrival.
        rec.target_vsync =
            ((arrival + task.vsync - 1) / task.vsync) * task.vsync;
    }
    task.stats.records.push_back(rec);
    task.stats.exec_ms.add(toMilliseconds(vdur));
    task.stats.busy += vdur;
    ++task.stats.invocations;

    if (task.metrics.invocations)
        task.metrics.invocations->add();
    if (task.metrics.exec_ms)
        task.metrics.exec_ms->observe(toMilliseconds(vdur));

    if (sink_) {
        Span span;
        span.task = task.stats.name;
        span.unit = task.plugin->execUnit();
        span.arrival = arrival;
        span.start = start;
        span.completion = completion;
        span.host_seconds = host_seconds;
        span.id = span_id;
        sink_->recordSpan(std::move(span));
    }

    // EMA of host duration drives the late-latch estimate.
    const double alpha = 0.2;
    task.duration_ema_s = (task.duration_ema_s == 0.0)
                              ? host_seconds
                              : (1.0 - alpha) * task.duration_ema_s +
                                    alpha * host_seconds;
}

void
SimScheduler::run(Duration duration)
{
    startPlugins();
    runDuration_ = duration;
    now_ = 0;
    // Seed arrivals at 0 (a vsync-aligned task has no EMA yet to
    // dispatch it any later).
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        scheduleArrival(i, 0);

    while (!queue_.empty()) {
        // Cooperative eviction (Session::stop()): wind down at the
        // next event boundary; stopPlugins() below still runs.
        if (stopRequested()) {
            runDuration_ = now_; // An evicted run ends at its last event.
            break;
        }
        const SimEvent ev = queue_.top();
        queue_.pop();
        if (ev.time > duration)
            break;
        now_ = ev.time;
        Task &task = tasks_[ev.task];

        if (ev.type == 1) { // Completion.
            task.running = false;
            continue;
        }

        // Arrival.
        if (task.running && task.plugin->skipOnOverrun()) {
            ++task.stats.skips;
            if (task.metrics.skips)
                task.metrics.skips->add();
            if (sink_)
                sink_->recordSkip(task.stats.name, ev.time,
                                  SkipCause::Overrun);
        } else {
            dispatch(ev.task, ev.time);
        }

        // Schedule the next arrival.
        if (task.vsync_aligned) {
            ++task.vsync_index;
            const TimePoint next_vsync =
                static_cast<TimePoint>(task.vsync_index + 1) * task.vsync;
            // As late as possible: budget = EMA scaled to virtual
            // time with a 30% safety margin.
            const Duration budget = platform_.scaleDuration(
                task.duration_ema_s * 1.3, task.plugin->execUnit());
            TimePoint next = next_vsync - budget;
            const TimePoint floor_time =
                static_cast<TimePoint>(task.vsync_index) * task.vsync;
            next = std::max(next, floor_time);
            scheduleArrival(ev.task, next);
        } else {
            scheduleArrival(ev.task, ev.time + task.plugin->period());
        }
    }
    now_ = runDuration_;
    stopPlugins();
}

const TaskStats &
SimScheduler::stats(const std::string &name) const
{
    for (const Task &t : tasks_) {
        if (t.stats.name == name)
            return t.stats;
    }
    throw std::out_of_range("no such task: " + name);
}

std::vector<std::string>
SimScheduler::taskNames() const
{
    std::vector<std::string> names;
    names.reserve(tasks_.size());
    for (const Task &t : tasks_)
        names.push_back(t.stats.name);
    return names;
}

double
SimScheduler::cpuUtilization() const
{
    if (runDuration_ <= 0 || cpuFreeAt_.empty())
        return 0.0;
    return toSeconds(cpuBusy_) /
           (toSeconds(runDuration_) * static_cast<double>(cpuFreeAt_.size()));
}

double
SimScheduler::gpuUtilization() const
{
    if (runDuration_ <= 0)
        return 0.0;
    return std::min(1.0, toSeconds(gpuBusy_) / toSeconds(runDuration_));
}

} // namespace illixr
