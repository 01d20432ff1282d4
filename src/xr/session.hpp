/**
 * @file
 * Multi-session fleet runtime: the session lifecycle behind (and
 * above) runIntegrated().
 *
 * One Session owns everything one XR user needs — Switchboard, plugin
 * set, executor, per-session MetricsRegistry and TraceSink — and runs
 * it on its own thread through explicit phases:
 *
 *     Session s{config};
 *     s.start();                       // non-blocking
 *     const IntegratedResult &r = s.result(); // joins, returns
 *
 * A SessionManager admits N such sessions concurrently (FIFO beyond
 * `max_concurrent`) and evicts cooperatively: evicting a queued
 * session drops it, evicting a running one asks its executor to wind
 * down at the next scheduling boundary — the partial result is still
 * collected. The only process-wide state sessions share is the
 * KernelPool (whose results are width-invariant, and whose accounting
 * is per-session via KernelPool::MetricsScope) and the manager's
 * admission slots; everything observable in a session's result is
 * per-session, which is why a deterministic session produces
 * byte-identical CSVs whether it runs alone or next to seven others
 * (asserted by DeterminismTest.ConcurrentSessionsMatchSolo).
 *
 * runIntegrated() remains as a thin one-session wrapper, so every
 * bench and example compiles unchanged.
 */

#pragma once

#include "xr/illixr_system.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace illixr {

class ExecutorBase;
class Plugin;
struct SystemTuning;

/**
 * Configuration of one session: the integrated-run knobs plus
 * session-level identity, and the one entry point that parses both
 * the environment and CLI flags (the fleet tools' "parse config one
 * way" rule).
 */
struct SessionConfig : IntegratedConfig
{
    /** Session label: names the session in fleet reports and logs. */
    std::string name = "session";

    /**
     * Head-tracker factory: when set, the session builds its VIO
     * plugin through this hook instead of the built-in VioPlugin —
     * how offloaded/edge-served trackers slot into the standard
     * assembly without xr linking them. The produced plugin can
     * publish its trajectory and run metrics into the result via
     * Plugin::vioTrajectory()/exportExtras(); MetricsRegistry and
     * (when resilience is on) FaultInjector are in the Phonebook by
     * the time the factory runs.
     */
    std::function<std::unique_ptr<Plugin>(
        const Phonebook &, const SystemTuning &)>
        vio_factory;

    SessionConfig() = default;
    SessionConfig(const IntegratedConfig &base) : IntegratedConfig(base) {}

    /**
     * Apply the executor environment overrides to *this:
     * `ILLIXR_EXECUTOR` (sim|pool), `ILLIXR_POOL_WORKERS`,
     * `ILLIXR_KERNEL_THREADS`, `ILLIXR_DETERMINISTIC` (0|1),
     * `ILLIXR_SEED`, `ILLIXR_FAULT_PLAN`, `ILLIXR_RESILIENCE` (0|1),
     * `ILLIXR_SCENARIO` (family name or scenario file),
     * `ILLIXR_SB_RING_CAP`, `ILLIXR_EDGE` (0|1), `ILLIXR_EDGE_LINK`,
     * `ILLIXR_EDGE_SLO_MS`, `ILLIXR_EDGE_BATCH`. Unset variables
     * leave the field untouched.
     * @return false on a malformed value (the config is left
     * partially updated).
     */
    bool applyEnv();

    /**
     * Parse one config CLI flag into *this: `--executor=sim|pool`,
     * `--workers=N`, `--kernel-threads=N`, `--deterministic`,
     * `--seed=N`, `--fault-plan=SPEC`, `--resilience`,
     * `--scenario=NAME_OR_FILE`, `--sb-ring-cap=N`, `--edge`,
     * `--edge-link=NAME`, `--edge-slo-ms=MS`, `--edge-batch=N`.
     * @return true when @p arg was one of these flags and parsed
     * cleanly; false otherwise (unrecognised flags are the caller's
     * business).
     */
    bool parseFlag(const std::string &arg);

    /**
     * Install @p s as the run scenario: sets `scenario` and folds the
     * scenario-level run knobs into *this — duration when
     * s.duration_s > 0, seed when s.seed != 0, and a non-empty fault
     * plan (parsed, with supervision + degradation switched on, as
     * `--fault-plan= --resilience` would). @return false when the
     * fault-plan spec is malformed (the scenario is still installed).
     */
    bool applyScenario(const Scenario &s);

    /**
     * Resolve @p spec — a built-in family name ("circular",
     * "figure-eight", ...) or a scenario file path — and
     * applyScenario() it. On failure @p error carries the scenario
     * parser's diagnostic (offending line and key).
     */
    bool applyScenarioSpec(const std::string &spec, std::string &error);

    /** What fromEnvAndArgs() produced (defined below). */
    struct Parse;

    /**
     * The one-stop config entry point: defaults, then environment
     * overrides, then CLI flags (flags beat env). argv[0] is skipped;
     * unrecognised arguments are returned in Parse::unparsed rather
     * than rejected, so tools can layer their own flags on top.
     */
    static Parse fromEnvAndArgs(int argc, const char *const *argv);
};

struct SessionConfig::Parse
{
    SessionConfig config;
    /** argv entries that are not config flags (tool-specific). */
    std::vector<std::string> unparsed;
    bool ok = true;
    std::string error; ///< First malformed env var / flag.
};

/**
 * One XR session: owns its full runtime stack and runs it on a
 * dedicated thread. All per-run state (Switchboard, dataset, plugins,
 * executor, MetricsRegistry, TraceSink, ResilienceContext) lives
 * inside the session; the result is identical to what the old
 * blocking runIntegrated() returned.
 */
class Session
{
  public:
    enum class State
    {
        Idle,     ///< Constructed, not yet started or submitted.
        Queued,   ///< Waiting for a SessionManager admission slot.
        Running,  ///< The session thread is executing.
        Finished, ///< Run complete (possibly evicted early); result valid.
        Evicted,  ///< Dropped from a queue before ever starting.
    };

    explicit Session(SessionConfig config);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const SessionConfig &config() const { return config_; }
    const std::string &name() const { return config_.name; }
    State state() const;

    /**
     * Launch the session thread (non-blocking). @throws
     * std::logic_error when already started.
     */
    void start();

    /**
     * Cooperative early stop: ask a running (or about-to-run) session
     * to wind down at its executor's next scheduling boundary. Safe
     * from any thread; one-way. The session still finishes normally —
     * stats collected, plugin stop() lifecycle run — just early.
     */
    void requestStop();

    /** requestStop() + wait(): the blocking stop phase. */
    void stop();

    /**
     * Block until the session is Finished (or Evicted). @throws
     * std::logic_error on a never-started, never-submitted session.
     */
    void wait();

    bool finished() const;

    /**
     * Wait for completion and return the collected result. Rethrows
     * an exception that escaped the session body; @throws
     * std::logic_error for a session evicted before it ever ran.
     */
    const IntegratedResult &result();

  private:
    friend class SessionManager;

    /** Manager hook: runs on the session thread after Finished. */
    void setOnFinished(std::function<void(Session &)> fn);

    /** Manager hook: Idle/Queued -> Queued/Evicted transitions. */
    void markQueued();
    bool markEvictedIfQueued();

    void runBody();

    SessionConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    State state_ = State::Idle;
    std::thread thread_;
    std::function<void(Session &)> on_finished_;
    IntegratedResult result_;
    std::exception_ptr error_;

    // Eviction handshake: the flag is set before the executor pointer
    // is read, and the body publishes the executor before re-checking
    // the flag, so a requestStop() can never fall between the two.
    std::mutex executor_mutex_;
    ExecutorBase *executor_ = nullptr;
    bool stop_requested_ = false;
};

/**
 * Admits N concurrent sessions onto the process. Submission beyond
 * `max_concurrent` queues FIFO; each finishing session pumps the
 * queue. Sessions are shared_ptr-owned so callers can hold, wait on,
 * or evict them independently of the manager's own bookkeeping.
 */
class SessionManager
{
  public:
    explicit SessionManager(std::size_t max_concurrent = 1);

    /** Drains: blocks until every submitted session is done. */
    ~SessionManager();

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * Admit @p config as a new session: starts immediately when a
     * slot is free, queues FIFO otherwise. Returns the session handle
     * (wait()/result() on it as with a standalone Session).
     */
    std::shared_ptr<Session> submit(SessionConfig config);

    /**
     * Evict a session: a queued one is dropped (state Evicted, never
     * runs); a running one gets requestStop() and finishes early with
     * a valid partial result. @return false when the session is not
     * this manager's or already finished.
     */
    bool evict(const std::shared_ptr<Session> &session);

    /** Block until every submitted session is Finished or Evicted. */
    void drain();

    std::size_t maxConcurrent() const { return max_concurrent_; }
    std::size_t runningCount() const;
    std::size_t queuedCount() const;

    /** Total sessions ever moved into Running. */
    std::uint64_t admittedTotal() const;

  private:
    void startLocked(const std::shared_ptr<Session> &session);
    void onSessionFinished(Session &session);

    const std::size_t max_concurrent_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Session>> queued_;
    std::vector<std::shared_ptr<Session>> running_;
    std::vector<std::shared_ptr<Session>> to_join_;
    std::uint64_t admitted_ = 0;
};

} // namespace illixr
