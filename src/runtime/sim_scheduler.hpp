/**
 * @file
 * Discrete-event runtime scheduler.
 *
 * The paper's runtime schedules components on real hardware; here the
 * same scheduling problem is solved on a *modeled* platform: plugins
 * execute for real (producing real images, poses, and audio), the
 * host cost of each invocation is measured, converted to virtual
 * time by the PlatformModel, and the invocation occupies a modeled
 * CPU hardware thread or the GPU queue for that virtual span.
 * Contention, missed deadlines, frame skips, and motion-to-photon
 * latency all emerge from this schedule (see DESIGN.md §4 for the
 * run-at-start simplification).
 *
 * Reprojection support follows §II-B footnote 5: a vsync-aligned
 * task is dispatched as late as possible before each vsync, using an
 * exponential moving average of its past durations as the budget
 * estimate.
 *
 * Implements the Executor interface (virtual timeline); with a
 * TraceSink attached, every invocation is recorded as a Span and
 * every skipped arrival as a SkipRecord.
 */

#pragma once

#include "perfmodel/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/plugin.hpp"

#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace illixr {

/**
 * The discrete-event scheduler.
 */
class SimScheduler : public Executor
{
  public:
    explicit SimScheduler(const PlatformModel &platform);

    /** Register a periodic plugin (not owned). */
    void addPlugin(Plugin *plugin) override;

    /**
     * Register a vsync-aligned plugin (reprojection): dispatched as
     * late as possible before each vsync of period @p vsync.
     */
    void addVsyncAlignedPlugin(Plugin *plugin, Duration vsync) override;

    /** Run the virtual timeline for @p duration. */
    void run(Duration duration) override;

    /** Current virtual time. */
    TimePoint now() const { return now_; }

    const TaskStats &stats(const std::string &name) const override;
    std::vector<std::string> taskNames() const override;

    const char *timeline() const override { return "virtual"; }

    /** Mean CPU hardware-thread utilization over the run, [0, 1]. */
    double cpuUtilization() const;

    /** GPU busy fraction over the run, [0, 1]. */
    double gpuUtilization() const;

    const PlatformModel &platform() const { return platform_; }

  private:
    struct Task
    {
        Plugin *plugin = nullptr;
        TaskStats stats;
        TaskMetrics metrics;
        bool running = false;
        bool vsync_aligned = false;
        Duration vsync = 0;
        std::size_t vsync_index = 0;
        double duration_ema_s = 0.0; ///< Host-seconds EMA.
    };

    struct SimEvent
    {
        TimePoint time = 0;
        std::uint64_t seq = 0;    ///< FIFO tie-break.
        int type = 0;             ///< 0 = arrival, 1 = completion.
        std::size_t task = 0;

        bool operator>(const SimEvent &o) const
        {
            if (time != o.time)
                return time > o.time;
            return seq > o.seq;
        }
    };

    void scheduleArrival(std::size_t task_index, TimePoint t);
    void dispatch(std::size_t task_index, TimePoint arrival);
    TimePoint acquireResource(ExecUnit unit, TimePoint earliest,
                              Duration duration);

    PlatformModel platform_;
    std::vector<Task> tasks_;
    std::priority_queue<SimEvent, std::vector<SimEvent>,
                        std::greater<SimEvent>>
        queue_;
    std::uint64_t seq_ = 0;
    TimePoint now_ = 0;

    std::vector<TimePoint> cpuFreeAt_;
    TimePoint gpuFreeAt_ = 0;
    Duration cpuBusy_ = 0;
    Duration gpuBusy_ = 0;
};

} // namespace illixr
