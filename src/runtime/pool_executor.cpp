#include "runtime/pool_executor.hpp"

#include "foundation/profile.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace illixr {

namespace {

/** Non-skip plugins may burst to catch up, but never unboundedly. */
constexpr int kMaxCatchupPeriods = 8;

/** Modeled cost of an event-driven invocation (deterministic mode). */
constexpr Duration kEventTaskNominal = kMillisecond;

} // namespace

const char *
laneName(PipelineLane lane)
{
    switch (lane) {
    case PipelineLane::Perception:
        return "perception";
    case PipelineLane::Visual:
        return "visual";
    case PipelineLane::Audio:
        return "audio";
    }
    return "?";
}

PipelineLane
laneForTask(const std::string &name)
{
    // The integrated system's component names (paper Table II /
    // Fig 2). Unknown tasks land on the middle lane.
    if (name == "camera" || name == "imu" || name == "vio" ||
        name == "integrator" || name.find("vio") != std::string::npos ||
        name.find("imu") != std::string::npos)
        return PipelineLane::Perception;
    if (name.find("audio") != std::string::npos)
        return PipelineLane::Audio;
    return PipelineLane::Visual;
}

PoolExecutor::PoolExecutor(PoolExecutorConfig config)
    : config_(config), platform_(PlatformModel::get(config.platform))
{
    if (config_.workers == 0)
        config_.workers = 1;
}

PoolExecutor::~PoolExecutor()
{
    stop();
}

void
PoolExecutor::addEntry(Plugin *plugin, PipelineLane lane, Duration period,
                       bool vsync_aligned, Duration vsync)
{
    auto entry = std::make_unique<Entry>();
    entry->plugin = plugin;
    entry->lane = lane;
    entry->period = period;
    entry->vsync_aligned = vsync_aligned;
    entry->vsync = vsync;
    entry->stats.name = plugin->name();
    entry->stats.unit = plugin->execUnit();
    entry->stats.period = period;
    entry->metrics = internMetrics(entry->stats.name);
    notePlugin(plugin);
    entries_.push_back(std::move(entry));
}

void
PoolExecutor::addPlugin(Plugin *plugin)
{
    addPlugin(plugin, laneForTask(plugin->name()));
}

void
PoolExecutor::addPlugin(Plugin *plugin, PipelineLane lane)
{
    addEntry(plugin, lane, plugin->period(), false, 0);
}

void
PoolExecutor::addVsyncAlignedPlugin(Plugin *plugin, Duration vsync)
{
    addEntry(plugin, laneForTask(plugin->name()), vsync, true, vsync);
}

void
PoolExecutor::addEventDrivenPlugin(Plugin *plugin, PipelineLane lane,
                                   Switchboard &sb,
                                   const std::string &topic)
{
    addEntry(plugin, lane, 0, false, 0);
    Entry *entry = entries_.back().get();
    const std::size_t task_index = entries_.size() - 1;
    entry->listener = sb.onPublish(
        topic, [this, entry, task_index](const std::string &) {
            if (config_.deterministic) {
                std::lock_guard<std::mutex> lock(simWakeupMutex_);
                simWakeups_.push_back(task_index);
                return;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                // Coalesce bursts: one pending invocation, latest wins
                // (the plugin reads the newest value when it runs).
                entry->pending_events = 1;
                entry->next_release = wallNs();
            }
            cv_.notify_one();
        });
}

TimePoint
PoolExecutor::wallNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
PoolExecutor::run(Duration duration)
{
    if (config_.deterministic) {
        runVirtual(duration);
        return;
    }
    start();
    interruptibleSleep(duration); // Eviction cuts the wall run short.
    stop();
}

void
PoolExecutor::start()
{
    if (config_.deterministic || running_.exchange(true))
        return;
    startPlugins();
    epoch_ = std::chrono::steady_clock::now();
    if (metrics_) {
        for (int lane = 0; lane < 3; ++lane)
            laneDepth_[lane] = &metrics_->gauge(
                std::string("pool.lane.") +
                laneName(static_cast<PipelineLane>(lane)) + ".queue_depth");
        workerInvocations_.clear();
        for (std::size_t w = 0; w < config_.workers; ++w)
            workerInvocations_.push_back(&metrics_->counter(
                "pool.worker." + std::to_string(w + 1) + ".invocations"));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        busyCpu_ = 0;
        busyGpu_ = 0;
        for (auto &entry : entries_) {
            entry->next_release = 0;
            entry->pending_events = 0;
            entry->in_flight = false;
        }
    }
    for (std::size_t w = 0; w < config_.workers; ++w)
        workers_.emplace_back([this, w] { workerMain(w); });
}

void
PoolExecutor::stop()
{
    if (config_.deterministic)
        return;
    // Raise the flag under the scheduling mutex so a worker between
    // its running check and its wait cannot miss the broadcast, then
    // release it: the joins below must never run while holding it
    // (a parked worker needs the mutex to observe the flag and exit).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_.exchange(false))
            return;
    }
    cv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    // The run covered start() to the last joined invocation — less
    // than the requested duration when an eviction cut it short.
    runDuration_ = wallNs();
    stopPlugins();
}

PoolExecutor::Entry *
PoolExecutor::pickDue(TimePoint now)
{
    Entry *best = nullptr;
    for (auto &entry : entries_) {
        if (entry->in_flight)
            continue;
        const bool due = entry->period > 0
                             ? entry->next_release <= now
                             : entry->pending_events > 0;
        if (!due)
            continue;
        if (!best || entry->lane < best->lane ||
            (entry->lane == best->lane &&
             entry->next_release < best->next_release))
            best = entry.get();
    }
    return best;
}

TimePoint
PoolExecutor::earliestRelease() const
{
    TimePoint earliest = -1;
    for (const auto &entry : entries_) {
        if (entry->in_flight || entry->period <= 0)
            continue;
        if (earliest < 0 || entry->next_release < earliest)
            earliest = entry->next_release;
    }
    return earliest;
}

void
PoolExecutor::updateQueueGauges(TimePoint now)
{
    if (!laneDepth_[0])
        return;
    std::size_t depth[3] = {0, 0, 0};
    for (const auto &entry : entries_) {
        if (entry->in_flight)
            continue;
        const bool due = entry->period > 0
                             ? entry->next_release <= now
                             : entry->pending_events > 0;
        if (due)
            ++depth[static_cast<int>(entry->lane)];
    }
    for (int lane = 0; lane < 3; ++lane)
        laneDepth_[lane]->set(static_cast<double>(depth[lane]));
}

void
PoolExecutor::executeLive(Entry &entry, std::size_t worker_index,
                          TimePoint release, TimePoint now)
{
    const std::uint64_t span_id = sink_ ? sink_->nextSpanId() : 0;
    std::uint64_t attempt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        attempt = ++entry.stats.attempts;
    }
    const InvocationOutcome out =
        invokeGuarded(*entry.plugin, attempt, now, span_id);

    if (out.suppressed) {
        if (sink_)
            sink_->recordSkip(entry.stats.name, now,
                              SkipCause::Suppressed);
        std::lock_guard<std::mutex> lock(mutex_);
        ++entry.stats.suppressed;
        return;
    }
    // Injected stalls hang the worker (bounded) so the occupancy is
    // real contention for the pool, like an actual hang would be.
    if (out.extra > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<Duration>(out.extra, 100 * kMillisecond)));
    const TimePoint done = wallNs();

    entry.iterations.fetch_add(1);
    if (entry.metrics.invocations)
        entry.metrics.invocations->add();
    if (out.exception && entry.metrics.exceptions)
        entry.metrics.exceptions->add();
    if (entry.metrics.exec_ms)
        entry.metrics.exec_ms->observe(toMilliseconds(done - now));
    if (worker_index < workerInvocations_.size() &&
        workerInvocations_[worker_index])
        workerInvocations_[worker_index]->add();
    if (sink_) {
        Span span;
        span.task = entry.stats.name;
        span.unit = entry.plugin->execUnit();
        span.arrival = release;
        span.start = now;
        span.completion = done;
        span.host_seconds = out.host_seconds;
        span.id = span_id;
        span.worker = static_cast<std::uint32_t>(worker_index + 1);
        sink_->recordSpan(std::move(span));
    }

    InvocationRecord rec;
    rec.arrival = release;
    rec.start = now;
    rec.virtual_duration = done - now;
    rec.completion = done;
    rec.host_seconds = out.host_seconds;
    if (entry.vsync_aligned && entry.vsync > 0)
        rec.target_vsync =
            ((now + entry.vsync - 1) / entry.vsync) * entry.vsync;

    std::lock_guard<std::mutex> lock(mutex_);
    entry.stats.records.push_back(rec);
    entry.stats.exec_ms.add(toMilliseconds(done - now));
    entry.stats.busy += done - now;
    ++entry.stats.invocations;
    if (out.exception)
        ++entry.stats.exceptions;
    if (entry.plugin->execUnit() == ExecUnit::Cpu)
        busyCpu_ += done - now;
    else
        busyGpu_ += done - now;
}

void
PoolExecutor::workerMain(std::size_t worker_index)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (running_.load()) {
        const TimePoint now = wallNs();
        Entry *entry = pickDue(now);
        if (!entry) {
            const TimePoint wake = earliestRelease();
            updateQueueGauges(now);
            if (wake < 0)
                cv_.wait(lock);
            else
                cv_.wait_until(lock,
                               epoch_ + std::chrono::nanoseconds(wake));
            continue;
        }

        const TimePoint release = entry->next_release;
        entry->in_flight = true;
        if (entry->period <= 0)
            entry->pending_events = 0;
        updateQueueGauges(now);

        // Wakeup chaining: one publish raises one notify_one, but by
        // the time this worker claimed its entry another may have
        // become due (a second publish, a periodic release). Without
        // a chained notify the remaining work waits for this worker's
        // completion — a measured scheduler-wait tail source on
        // topic-driven plugins.
        if (pickDue(now))
            cv_.notify_one();

        lock.unlock();
        executeLive(*entry, worker_index, release, now);
        lock.lock();

        entry->in_flight = false;
        if (entry->period > 0) {
            // Rate limit: exactly one invocation per period boundary.
            const TimePoint after = wallNs();
            entry->next_release += entry->period;
            if (entry->next_release <= after) {
                const bool skip = entry->plugin->skipOnOverrun();
                const TimePoint behind =
                    (after - entry->next_release) / entry->period;
                if (skip || behind > kMaxCatchupPeriods) {
                    // Drop the missed boundaries and realign.
                    while (entry->next_release <= after) {
                        ++entry->stats.skips;
                        if (entry->metrics.skips)
                            entry->metrics.skips->add();
                        if (sink_)
                            sink_->recordSkip(entry->stats.name, after,
                                              SkipCause::Overrun);
                        entry->next_release += entry->period;
                    }
                }
                // else: a non-skip plugin catches up by running again
                // immediately (bounded by kMaxCatchupPeriods).
            }
        }
        // A slot changed: a sleeping worker may now have work.
        cv_.notify_one();
    }
}

// --------------------------------------------------- deterministic

Duration
PoolExecutor::modeledCost(const Entry &entry, std::size_t w)
{
    // Deterministic by construction: the cost is a seeded per-worker
    // draw around a nominal fraction of the period, scaled by the
    // platform — never the measured host time, which varies run to
    // run.
    const Duration nominal =
        entry.period > 0 ? entry.period / 4 : kEventTaskNominal;
    const double jitter = workerRng_[w].uniform(0.9, 1.1);
    return platform_.scaleDuration(toSeconds(nominal) * jitter,
                                   entry.plugin->execUnit());
}

void
PoolExecutor::runVirtual(Duration duration)
{
    startPlugins();
    busyCpu_ = 0;
    busyGpu_ = 0;
    for (auto &entry : entries_) {
        entry->sim_running = false;
        entry->sim_queued = 0;
    }

    if (metrics_) {
        for (int lane = 0; lane < 3; ++lane)
            laneDepth_[lane] = &metrics_->gauge(
                std::string("pool.lane.") +
                laneName(static_cast<PipelineLane>(lane)) + ".queue_depth");
        workerInvocations_.clear();
        for (std::size_t w = 0; w < config_.workers; ++w)
            workerInvocations_.push_back(&metrics_->counter(
                "pool.worker." + std::to_string(w + 1) + ".invocations"));
    }

    // Seed one Rng stream per worker; identical seeds give identical
    // draws, making the whole timeline a pure function of the seed.
    workerRng_.clear();
    for (std::size_t w = 0; w < config_.workers; ++w)
        workerRng_.emplace_back(config_.seed * 0x9e3779b97f4a7c15ULL +
                                w + 1);

    std::priority_queue<SimEvent, std::vector<SimEvent>,
                        std::greater<SimEvent>>
        queue;
    std::uint64_t seq = 0;

    // Dispatch model: arrivals land in a ready queue and are handed
    // to a worker only when one is genuinely free, highest lane (then
    // FIFO) first. The old scheme bound every arrival to the
    // earliest-free worker *at arrival time* — FCFS per worker, so a
    // due perception task could sit behind an already-queued audio
    // task (head-of-line blocking, tail_bench's top scheduler-wait
    // attribution) and a non-skip plugin could overlap itself.
    struct ReadyItem
    {
        int lane = 0;
        std::uint64_t seq = 0;
        std::size_t task = 0;
        TimePoint arrival = 0;
    };
    std::vector<ReadyItem> ready;
    std::vector<bool> workerBusy(config_.workers, false);

    auto pushArrival = [&queue, &seq, this](std::size_t task, TimePoint t) {
        queue.push(SimEvent{t, static_cast<int>(entries_[task]->lane),
                            seq++, 0, task});
    };

    auto recordOverrun = [this](Entry &entry, TimePoint t) {
        ++entry.stats.skips;
        if (entry.metrics.skips)
            entry.metrics.skips->add();
        if (sink_)
            sink_->recordSkip(entry.stats.name, t, SkipCause::Overrun);
    };

    // Admit one arrival to the ready queue, or drop it when the entry
    // is saturated: skip-on-overrun and event-driven entries coalesce
    // to one outstanding invocation; non-skip periodic entries may
    // queue a catch-up burst but never past kMaxCatchupPeriods (the
    // same bound live mode enforces — unbounded virtual catch-up was
    // tail_bench's post-stall drop-retry storm).
    auto onArrival = [&ready, &seq, &recordOverrun,
                      this](std::size_t task, TimePoint t) {
        Entry &entry = *entries_[task];
        const int backlog =
            entry.sim_queued + (entry.sim_running ? 1 : 0);
        const bool coalesce =
            entry.period <= 0 || entry.plugin->skipOnOverrun();
        const int limit = coalesce ? 1 : kMaxCatchupPeriods;
        if (backlog >= limit) {
            recordOverrun(entry, t);
            return;
        }
        ready.push_back(ReadyItem{static_cast<int>(entry.lane), seq++,
                                  task, t});
        ++entry.sim_queued;
    };

    // Run every ready item a free worker can take at virtual time
    // @p now, best (lane, seq) first, lowest free worker index first;
    // topic wakeups raised by each invocation join the ready queue
    // before the next pick, so a chain of event-driven stages drains
    // at one virtual instant when workers allow.
    auto dispatchReady = [&](TimePoint now) {
        for (;;) {
            std::size_t w = config_.workers;
            for (std::size_t i = 0; i < config_.workers; ++i) {
                if (!workerBusy[i]) {
                    w = i;
                    break;
                }
            }
            if (w == config_.workers)
                return;
            std::size_t best = ready.size();
            for (std::size_t j = 0; j < ready.size(); ++j) {
                if (entries_[ready[j].task]->sim_running)
                    continue;
                if (best == ready.size() ||
                    ready[j].lane < ready[best].lane ||
                    (ready[j].lane == ready[best].lane &&
                     ready[j].seq < ready[best].seq))
                    best = j;
            }
            if (best == ready.size())
                return;
            const ReadyItem item = ready[best];
            ready.erase(ready.begin() +
                        static_cast<std::ptrdiff_t>(best));
            Entry &entry = *entries_[item.task];
            --entry.sim_queued;

            const std::uint64_t span_id =
                sink_ ? sink_->nextSpanId() : 0;
            const std::uint64_t attempt = ++entry.stats.attempts;
            // w is a virtual slot; the invocation runs inline, so
            // interceptor decisions stay a pure function of
            // (task, attempt).
            const InvocationOutcome out =
                invokeGuarded(*entry.plugin, attempt, now, span_id);

            if (out.suppressed) {
                // Held by the interceptor: no cost draw (the decision
                // is deterministic, so the draw stream stays aligned
                // across runs), no completion event, worker stays
                // free.
                ++entry.stats.suppressed;
                if (sink_)
                    sink_->recordSkip(entry.stats.name, now,
                                      SkipCause::Suppressed);
            } else {
                if (out.exception) {
                    ++entry.stats.exceptions;
                    if (entry.metrics.exceptions)
                        entry.metrics.exceptions->add();
                }

                // Injected spikes/stalls stretch the *modeled* cost,
                // so they land on the virtual timeline
                // deterministically.
                Duration vdur = modeledCost(entry, w);
                vdur = static_cast<Duration>(
                           static_cast<double>(vdur) *
                           out.duration_scale) +
                       out.extra;
                const TimePoint completion = now + vdur;
                workerBusy[w] = true;
                entry.sim_running = true;
                queue.push(SimEvent{completion,
                                    static_cast<int>(entry.lane), seq++,
                                    1, item.task, w});

                InvocationRecord rec;
                rec.arrival = item.arrival;
                rec.start = now;
                rec.virtual_duration = vdur;
                rec.completion = completion;
                rec.host_seconds = out.host_seconds;
                if (entry.vsync_aligned && entry.vsync > 0)
                    rec.target_vsync =
                        ((item.arrival + entry.vsync - 1) /
                         entry.vsync) *
                        entry.vsync;
                entry.stats.records.push_back(rec);
                entry.stats.exec_ms.add(toMilliseconds(vdur));
                entry.stats.busy += vdur;
                ++entry.stats.invocations;
                entry.iterations.fetch_add(1);
                if (entry.plugin->execUnit() == ExecUnit::Cpu)
                    busyCpu_ += vdur;
                else
                    busyGpu_ += vdur;

                if (entry.metrics.invocations)
                    entry.metrics.invocations->add();
                if (entry.metrics.exec_ms)
                    entry.metrics.exec_ms->observe(
                        toMilliseconds(vdur));
                if (workerInvocations_.size() > w &&
                    workerInvocations_[w])
                    workerInvocations_[w]->add();
                if (sink_) {
                    Span span;
                    span.task = entry.stats.name;
                    span.unit = entry.plugin->execUnit();
                    span.arrival = item.arrival;
                    span.start = now;
                    span.completion = completion;
                    span.host_seconds = out.host_seconds;
                    span.id = span_id;
                    span.worker = static_cast<std::uint32_t>(w + 1);
                    sink_->recordSpan(std::move(span));
                }
            }

            // Topic wakeups raised by the invocation become ready
            // arrivals at the current virtual time, in publish order.
            {
                std::lock_guard<std::mutex> wlock(simWakeupMutex_);
                for (std::size_t task : simWakeups_)
                    onArrival(task, now);
                simWakeups_.clear();
            }
        }
    };

    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i]->period > 0)
            pushArrival(i, 0);
    }

    // The run covers the whole horizon unless evicted, when it ends
    // at the last event processed.
    runDuration_ = duration;
    TimePoint last_event = 0;
    while (!queue.empty()) {
        // Cooperative eviction (Session::stop()): wind down at the
        // next virtual-event boundary; the lifecycle below still runs.
        if (stopRequested()) {
            runDuration_ = last_event;
            break;
        }
        const SimEvent ev = queue.top();
        queue.pop();
        if (ev.time > duration)
            break;
        last_event = ev.time;
        Entry &entry = *entries_[ev.task];

        if (ev.type == 1) { // Completion frees worker and slot.
            entry.sim_running = false;
            workerBusy[ev.worker] = false;
        } else {
            onArrival(ev.task, ev.time);
            if (entry.period > 0)
                pushArrival(ev.task, ev.time + entry.period);
        }

        dispatchReady(ev.time);

        if (laneDepth_[0]) {
            // True ready-queue depth per lane at this virtual instant
            // (runnable-but-waiting, the scheduler-wait backlog).
            std::size_t depth[3] = {0, 0, 0};
            for (const ReadyItem &item : ready)
                ++depth[item.lane];
            for (int lane = 0; lane < 3; ++lane)
                laneDepth_[lane]->set(static_cast<double>(depth[lane]));
        }
    }

    // Post-horizon state: entries left in the ready queue never ran.
    for (const ReadyItem &item : ready)
        --entries_[item.task]->sim_queued;

    stopPlugins();
}

// ---------------------------------------------------------- stats

std::size_t
PoolExecutor::iterations(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry->stats.name == name)
            return entry->iterations.load();
    }
    return 0;
}

const TaskStats &
PoolExecutor::stats(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry->stats.name == name) {
            std::lock_guard<std::mutex> lock(mutex_);
            return entry->stats;
        }
    }
    throw std::out_of_range("no such task: " + name);
}

std::vector<std::string>
PoolExecutor::taskNames() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto &entry : entries_)
        names.push_back(entry->stats.name);
    return names;
}

double
PoolExecutor::cpuUtilization() const
{
    if (runDuration_ <= 0 || config_.workers == 0)
        return 0.0;
    return toSeconds(busyCpu_) /
           (toSeconds(runDuration_) * static_cast<double>(config_.workers));
}

double
PoolExecutor::gpuUtilization() const
{
    if (runDuration_ <= 0)
        return 0.0;
    return std::min(1.0, toSeconds(busyGpu_) / toSeconds(runDuration_));
}

} // namespace illixr
