/**
 * @file
 * Session lifecycle and SessionManager admission tests: the fleet
 * runtime's state machine (Idle -> Queued -> Running -> Finished /
 * Evicted), the cooperative early-stop path, FIFO admission beyond
 * `max_concurrent`, eviction of queued vs running sessions, and the
 * one-stop SessionConfig parser (env + CLI layering).
 */

#include "xr/illixr_system.hpp"
#include "xr/session.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace illixr {
namespace {

/** Small deterministic pool-executor session config. */
SessionConfig
quickConfig(const std::string &name, unsigned seed = 11,
            Duration duration = 300 * kMillisecond)
{
    SessionConfig cfg;
    cfg.name = name;
    cfg.executor = ExecutorKind::Pool;
    cfg.pool_workers = 2;
    cfg.deterministic = true;
    cfg.seed = seed;
    cfg.duration = duration;
    return cfg;
}

/** RAII environment override: restores the prior value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        if (const char *prev = std::getenv(key)) {
            had_prev_ = true;
            prev_ = prev;
        }
        ::setenv(key, value, 1);
    }

    ~ScopedEnv()
    {
        if (had_prev_)
            ::setenv(key_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_;
    std::string prev_;
    bool had_prev_ = false;
};

// ---------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------

TEST(SessionTest, RunsToCompletion)
{
    Session session{quickConfig("solo")};
    EXPECT_EQ(session.state(), Session::State::Idle);
    EXPECT_EQ(session.name(), "solo");
    session.start();
    const IntegratedResult &r = session.result();
    EXPECT_EQ(session.state(), Session::State::Finished);
    EXPECT_TRUE(session.finished());
    EXPECT_GT(r.tasks.size(), 0u);
    EXPECT_GT(r.vio_trajectory.size(), 0u);
    // result() is idempotent once finished.
    EXPECT_EQ(&session.result(), &r);
}

TEST(SessionTest, DoubleStartThrows)
{
    Session session{quickConfig("dup")};
    session.start();
    EXPECT_THROW(session.start(), std::logic_error);
    session.wait();
    EXPECT_THROW(session.start(), std::logic_error);
}

TEST(SessionTest, WaitBeforeStartThrows)
{
    Session session{quickConfig("idle")};
    EXPECT_THROW(session.wait(), std::logic_error);
    EXPECT_THROW(session.result(), std::logic_error);
    EXPECT_FALSE(session.finished());
}

TEST(SessionTest, StopBeforeRunSkipsTheRun)
{
    // requestStop() is one-way and may land before start(): the
    // session still goes through the full lifecycle (plugins built,
    // stats collected) but the executor winds down at the first
    // scheduling boundary.
    Session session{quickConfig("prestop", 11, 30 * kSecond)};
    session.requestStop();
    session.start();
    const IntegratedResult &r = session.result();
    EXPECT_EQ(session.state(), Session::State::Finished);
    auto it = r.tasks.find("timewarp");
    ASSERT_NE(it, r.tasks.end());
    // A full 30 s virtual run would log thousands of frames.
    EXPECT_LT(it->second.invocations, 10u);
}

TEST(SessionTest, StopMidRunYieldsPartialResult)
{
    // A long session stopped shortly after launch still produces a
    // valid (partial) result — far fewer frames than the configured
    // duration would imply.
    Session session{quickConfig("midstop", 11, 30 * kSecond)};
    session.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    session.stop();
    EXPECT_EQ(session.state(), Session::State::Finished);
    const IntegratedResult &r = session.result();
    auto it = r.tasks.find("timewarp");
    ASSERT_NE(it, r.tasks.end());
    // 30 s at the 120 Hz display target would be ~3600 frames.
    EXPECT_LT(it->second.invocations, 3000u);
}

TEST(SessionTest, DestructorStopsARunningSession)
{
    // Dropping a running session must not hang or crash: the
    // destructor requests a stop and joins.
    auto session =
        std::make_unique<Session>(quickConfig("dtor", 11, 30 * kSecond));
    session->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session.reset();
}

// ---------------------------------------------------------------------
// SessionManager admission / eviction
// ---------------------------------------------------------------------

TEST(SessionManagerTest, RunsSubmissionsToCompletion)
{
    SessionManager manager(2);
    EXPECT_EQ(manager.maxConcurrent(), 2u);
    std::vector<std::shared_ptr<Session>> fleet;
    for (unsigned i = 0; i < 3; ++i)
        fleet.push_back(manager.submit(
            quickConfig("m" + std::to_string(i), 11 + i)));
    manager.drain();
    EXPECT_EQ(manager.runningCount(), 0u);
    EXPECT_EQ(manager.queuedCount(), 0u);
    EXPECT_EQ(manager.admittedTotal(), 3u);
    for (const auto &session : fleet) {
        EXPECT_EQ(session->state(), Session::State::Finished);
        EXPECT_GT(session->result().tasks.size(), 0u);
    }
}

TEST(SessionManagerTest, NeverExceedsMaxConcurrent)
{
    SessionManager manager(1);
    std::vector<std::shared_ptr<Session>> fleet;
    for (unsigned i = 0; i < 3; ++i)
        fleet.push_back(manager.submit(
            quickConfig("q" + std::to_string(i), 11 + i)));
    // The admission invariant holds at every observable instant.
    while (manager.runningCount() + manager.queuedCount() > 0) {
        EXPECT_LE(manager.runningCount(), 1u);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    manager.drain();
    EXPECT_EQ(manager.admittedTotal(), 3u);
    for (const auto &session : fleet)
        EXPECT_EQ(session->state(), Session::State::Finished);
}

TEST(SessionManagerTest, EvictQueuedSessionNeverRuns)
{
    SessionManager manager(1);
    auto runner = manager.submit(quickConfig("run", 11, 30 * kSecond));
    auto queued = manager.submit(quickConfig("q", 12));
    EXPECT_EQ(queued->state(), Session::State::Queued);
    EXPECT_EQ(manager.queuedCount(), 1u);

    EXPECT_TRUE(manager.evict(queued));
    EXPECT_EQ(queued->state(), Session::State::Evicted);
    EXPECT_TRUE(queued->finished());
    EXPECT_THROW(queued->result(), std::logic_error);
    EXPECT_EQ(manager.queuedCount(), 0u);

    // Evicting the running session stops it early; its partial result
    // is still collectable.
    EXPECT_TRUE(manager.evict(runner));
    manager.drain();
    EXPECT_EQ(runner->state(), Session::State::Finished);
    EXPECT_GT(runner->result().tasks.size(), 0u);
    EXPECT_EQ(manager.admittedTotal(), 1u);
}

TEST(SessionManagerTest, EvictRejectsForeignOrDoneSessions)
{
    SessionManager manager(1);
    EXPECT_FALSE(manager.evict(nullptr));

    auto foreign = std::make_shared<Session>(quickConfig("foreign"));
    EXPECT_FALSE(manager.evict(foreign));

    auto done = manager.submit(quickConfig("done"));
    done->wait();
    manager.drain();
    EXPECT_FALSE(manager.evict(done));
}

// ---------------------------------------------------------------------
// SessionConfig: the one config parser
// ---------------------------------------------------------------------

TEST(SessionConfigTest, FlagsBeatEnvironment)
{
    ScopedEnv seed("ILLIXR_SEED", "5");
    ScopedEnv workers("ILLIXR_POOL_WORKERS", "3");
    const char *argv[] = {"prog", "--seed=9", "--my-tool-flag"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(3, argv);
    ASSERT_TRUE(parse.ok) << parse.error;
    EXPECT_EQ(parse.config.seed, 9u);      // Flag beat env.
    EXPECT_EQ(parse.config.pool_workers, 3u); // Env applied.
    ASSERT_EQ(parse.unparsed.size(), 1u);
    EXPECT_EQ(parse.unparsed[0], "--my-tool-flag");
}

TEST(SessionConfigTest, MalformedOwnedFlagIsAnError)
{
    const char *argv[] = {"prog", "--seed=banana"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(2, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_NE(parse.error.find("--seed=banana"), std::string::npos);
}

TEST(SessionConfigTest, MalformedEnvIsAnError)
{
    ScopedEnv workers("ILLIXR_POOL_WORKERS", "zero");
    const char *argv[] = {"prog"};
    const SessionConfig::Parse parse =
        SessionConfig::fromEnvAndArgs(1, argv);
    EXPECT_FALSE(parse.ok);
    EXPECT_FALSE(parse.error.empty());
}

TEST(SessionConfigTest, ParseFlagAndApplyEnvSetFields)
{
    // The per-flag and environment entry points that fromEnvAndArgs()
    // is built from, driven one at a time.
    SessionConfig cfg;
    EXPECT_TRUE(cfg.parseFlag("--seed=42"));
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_FALSE(cfg.parseFlag("--not-a-config-flag"));

    ScopedEnv seed("ILLIXR_SEED", "7");
    EXPECT_TRUE(cfg.applyEnv());
    EXPECT_EQ(cfg.seed, 7u);
}

} // namespace
} // namespace illixr
