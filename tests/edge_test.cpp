/**
 * @file
 * Tests for the edge-offload server: deadline-aware admission and
 * shedding, same-window batching and its amortization, pump-cadence
 * independence, the fleet simulation's capacity/SLO math (including
 * the headline "batched serving sustains >= 2x the clients of
 * unbatched at the same p99 SLO"), and the session glue.
 */

#include "edge/edge_session.hpp"
#include "edge/fleet_sim.hpp"
#include "trace/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace illixr {
namespace {

Duration
ms(double v)
{
    return fromSeconds(v / 1000.0);
}

EdgeRequest
makeRequest(std::uint64_t client, std::uint64_t seq, TimePoint arrival,
            TimePoint deadline)
{
    EdgeRequest r;
    r.client = client;
    r.seq = seq;
    r.frame_time = arrival;
    r.arrival = arrival;
    r.deadline = deadline;
    r.bytes = 1000;
    return r;
}

TEST(EdgeServerTest, RejectsUnknownClientAndFullQueue)
{
    EdgeServerConfig cfg;
    cfg.max_queue = 2;
    EdgeServer server(cfg);

    // Unknown client: rejected outright, no completion.
    EXPECT_FALSE(server.submit(makeRequest(7, 0, ms(1), ms(1000))));
    EXPECT_EQ(server.rejectedTotal(), 1u);

    ASSERT_TRUE(server.connect(7));
    EXPECT_TRUE(server.submit(makeRequest(7, 1, ms(1), ms(1000))));
    EXPECT_TRUE(server.submit(makeRequest(7, 2, ms(1), ms(1000))));
    // Third queued request exceeds max_queue.
    EXPECT_FALSE(server.submit(makeRequest(7, 3, ms(1), ms(1000))));
    EXPECT_EQ(server.rejectedTotal(), 2u);
    EXPECT_EQ(server.queueDepth(), 2u);
}

TEST(EdgeServerTest, ConnectIsBoundedAndKeyed)
{
    EdgeServerConfig cfg;
    cfg.max_clients = 2;
    EdgeServer server(cfg);
    EXPECT_TRUE(server.connect(1));
    EXPECT_FALSE(server.connect(1)); // Duplicate key.
    EXPECT_TRUE(server.connect(2));
    EXPECT_FALSE(server.connect(3)); // Full.
    EXPECT_EQ(server.connectedClients(), 2u);
    server.disconnect(1);
    EXPECT_TRUE(server.connect(3));
}

TEST(EdgeServerTest, FleetStartWaitsForEveryConnectedClient)
{
    // Sessions sharing a server start their virtual clocks together:
    // client 1 is held until client 2 (still in set-up) arrives, and
    // a disconnected client is not waited for.
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));
    ASSERT_TRUE(server.connect(2));
    ASSERT_TRUE(server.connect(3));
    server.disconnect(3);
    std::atomic<bool> second_arrived{false};
    std::thread first([&] {
        server.awaitFleetStart(1);
        EXPECT_TRUE(second_arrived.load());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    second_arrived = true;
    server.awaitFleetStart(2);
    first.join();
    server.awaitFleetStart(7); // Unknown client: no wait.
}

TEST(EdgeServerTest, ShedsUnmeetableDeadlineAtSubmit)
{
    EdgeServer server;
    ASSERT_TRUE(server.connect(1));

    // Even served immediately and alone, the pose would complete at
    // arrival + svc(1) — a deadline before that is shed at submit.
    const double svc1 = server.batchServiceMs(1);
    EdgeRequest r =
        makeRequest(1, 0, ms(10), ms(10) + ms(svc1) - ms(0.1));
    EXPECT_TRUE(server.submit(r)); // Admitted (completion follows)...
    EXPECT_EQ(server.shedTotal(), 1u);
    EXPECT_EQ(server.queueDepth(), 0u); // ...but never queued.

    const std::vector<EdgeCompletion> done = server.poll(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].verdict, EdgeVerdict::Shed);
    EXPECT_EQ(done[0].seq, 0u);
    EXPECT_EQ(done[0].done, r.arrival); // Client learns immediately.
}

TEST(EdgeServerTest, BatchesSameWindowRequestsAndStampsSharedDone)
{
    EdgeServerConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_window = ms(2);
    EdgeServer server(cfg);
    ASSERT_TRUE(server.connect(1));
    ASSERT_TRUE(server.connect(2));

    // Two requests inside one window fuse into one batch.
    EXPECT_TRUE(server.submit(makeRequest(1, 0, ms(10), ms(1000))));
    EXPECT_TRUE(server.submit(makeRequest(2, 0, ms(11), ms(1000))));
    server.pump(ms(1000));

    const std::vector<EdgeCompletion> a = server.poll(1);
    const std::vector<EdgeCompletion> b = server.poll(2);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].verdict, EdgeVerdict::Served);
    EXPECT_EQ(b[0].verdict, EdgeVerdict::Served);
    EXPECT_EQ(a[0].batch_size, 2u);
    EXPECT_EQ(b[0].batch_size, 2u);
    EXPECT_EQ(a[0].done, b[0].done); // One fused completion time.
    EXPECT_DOUBLE_EQ(a[0].service_ms, server.batchServiceMs(2));
    // Launched at window expiry (head arrival + window), not earlier.
    EXPECT_EQ(a[0].done,
              ms(10) + cfg.batch_window + ms(server.batchServiceMs(2)));
    EXPECT_EQ(server.batchesTotal(), 1u);
    // Distinct clients get distinct fused-update digests.
    EXPECT_NE(a[0].digest, b[0].digest);
}

TEST(EdgeServerTest, FullBatchLaunchesBeforeWindowExpiry)
{
    EdgeServerConfig cfg;
    cfg.max_batch = 2;
    cfg.batch_window = ms(50);
    EdgeServer server(cfg);
    ASSERT_TRUE(server.connect(1));
    EXPECT_TRUE(server.submit(makeRequest(1, 0, ms(10), ms(1000))));
    EXPECT_TRUE(server.submit(makeRequest(1, 1, ms(12), ms(1000))));
    server.pump(ms(1000));
    const std::vector<EdgeCompletion> done = server.poll(1);
    ASSERT_EQ(done.size(), 2u);
    // The fill trigger (second arrival, 12 ms) beats the 60 ms window.
    EXPECT_EQ(done[0].done, ms(12) + ms(server.batchServiceMs(2)));
}

TEST(EdgeServerTest, BatchingAmortizesDispatchOverhead)
{
    EdgeServer server;
    const double unbatched = server.batchServiceMs(1);
    const double batched_per_req =
        server.batchServiceMs(server.config().max_batch) /
        static_cast<double>(server.config().max_batch);
    // The headline economics: a full batch costs well under half the
    // per-request time of serving alone (sub-linear scaling).
    EXPECT_LT(batched_per_req, 0.5 * unbatched);
}

TEST(EdgeServerTest, ShedsAtLaunchWhenBatchCompletionMissesDeadline)
{
    EdgeServerConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_window = ms(2);
    EdgeServer server(cfg);
    ASSERT_TRUE(server.connect(1));
    ASSERT_TRUE(server.connect(2));

    // Both arrive together; the batch completes at
    // arrival + window + svc(2). Client 2's deadline clears the
    // admission test (arrival + svc(1)) but not the batch completion:
    // it must be shed at launch, and client 1 then rides alone.
    const TimePoint arrival = ms(10);
    const double svc1 = server.batchServiceMs(1);
    EXPECT_TRUE(
        server.submit(makeRequest(1, 0, arrival, ms(1000))));
    EXPECT_TRUE(server.submit(
        makeRequest(2, 0, arrival, arrival + ms(svc1) + ms(0.1))));
    server.pump(ms(1000));

    const std::vector<EdgeCompletion> a = server.poll(1);
    const std::vector<EdgeCompletion> b = server.poll(2);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].verdict, EdgeVerdict::Shed);
    EXPECT_EQ(a[0].verdict, EdgeVerdict::Served);
    // The survivor's batch shrank to 1 — shedding made it earlier.
    EXPECT_EQ(a[0].batch_size, 1u);
    EXPECT_EQ(server.shedTotal(), 1u);
    EXPECT_EQ(server.servedTotal(), 1u);
}

TEST(EdgeServerTest, PumpCadenceDoesNotChangeOutcomes)
{
    // Batch composition and completion times are pure functions of
    // the request arrivals: pumping every millisecond and pumping
    // once at the end must produce identical completion streams.
    auto run = [](Duration step) {
        EdgeServerConfig cfg;
        cfg.max_batch = 4;
        // Deep queues: admission (a bounded buffer, inherently
        // timing-coupled) must not mask the batch-engine invariant.
        cfg.max_queue = 64;
        EdgeServer server(cfg);
        server.connect(1);
        server.connect(2);
        std::vector<EdgeCompletion> all;
        TimePoint pumped = 0;
        for (int i = 0; i < 40; ++i) {
            const TimePoint t = ms(7 * i + 1);
            if (step > 0) {
                for (; pumped < t; pumped += step) {
                    server.pump(pumped);
                    for (std::uint64_t c = 1; c <= 2; ++c)
                        for (const EdgeCompletion &d : server.poll(c))
                            all.push_back(d);
                }
            }
            server.submit(
                makeRequest(1 + (i % 2), i, t, t + ms(80)));
        }
        server.pump(ms(10000));
        for (std::uint64_t c = 1; c <= 2; ++c)
            for (const EdgeCompletion &d : server.poll(c))
                all.push_back(d);
        std::sort(all.begin(), all.end(),
                  [](const EdgeCompletion &x, const EdgeCompletion &y) {
                      if (x.client != y.client)
                          return x.client < y.client;
                      return x.seq < y.seq;
                  });
        return all;
    };

    const std::vector<EdgeCompletion> fine = run(ms(1));
    const std::vector<EdgeCompletion> coarse = run(0);
    ASSERT_EQ(fine.size(), coarse.size());
    for (std::size_t i = 0; i < fine.size(); ++i) {
        EXPECT_EQ(fine[i].client, coarse[i].client);
        EXPECT_EQ(fine[i].seq, coarse[i].seq);
        EXPECT_EQ(fine[i].verdict, coarse[i].verdict);
        EXPECT_EQ(fine[i].done, coarse[i].done);
        EXPECT_EQ(fine[i].digest, coarse[i].digest);
    }
}

TEST(EdgeServerTest, MetricsCountVerdictsAndBatches)
{
    MetricsRegistry metrics;
    EdgeServer server;
    server.setMetrics(&metrics);
    ASSERT_TRUE(server.connect(1));
    EXPECT_TRUE(server.submit(makeRequest(1, 0, ms(10), ms(1000))));
    EXPECT_TRUE(server.submit(
        makeRequest(1, 1, ms(10), ms(10)))); // Unmeetable: shed.
    EXPECT_FALSE(server.submit(makeRequest(2, 0, ms(10), ms(1000))));
    server.pump(ms(1000));
    EXPECT_EQ(metrics.counter("edge.served").value(), 1u);
    EXPECT_EQ(metrics.counter("edge.shed").value(), 1u);
    EXPECT_EQ(metrics.counter("edge.rejected").value(), 1u);
    EXPECT_EQ(metrics.counter("edge.batches").value(), 1u);
    EXPECT_EQ(metrics.histogram("edge.service_ms").count(), 1u);
}

/** Largest fleet that still meets the SLO, by doubling + bisection. */
std::size_t
maxClientsMeetingSlo(const NetworkLink &link, std::size_t max_batch,
                     std::size_t limit)
{
    auto meets = [&](std::size_t n) {
        EdgeFleetConfig cfg;
        cfg.clients = n;
        cfg.link = link;
        cfg.duration = 4 * kSecond;
        cfg.server.max_batch = max_batch;
        const EdgeFleetReport report = runEdgeFleet(cfg);
        return report.meetsSlo(cfg.slo_ms);
    };
    if (!meets(1))
        return 0;
    std::size_t lo = 1, hi = 2;
    while (hi <= limit && meets(hi)) {
        lo = hi;
        hi *= 2;
    }
    if (hi > limit)
        return lo;
    while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        (meets(mid) ? lo : hi) = mid;
    }
    return lo;
}

TEST(EdgeFleetTest, BatchedServingSustainsTwiceTheUnbatchedClients)
{
    // The acceptance headline: at wifi6, batched serving sustains at
    // least 2x the client count of unbatched serving at the same p99
    // pose-latency SLO.
    const NetworkLink link = NetworkLink::wifi6();
    const std::size_t unbatched = maxClientsMeetingSlo(link, 1, 128);
    ASSERT_GE(unbatched, 1u);
    const std::size_t batched = maxClientsMeetingSlo(link, 8, 128);
    EXPECT_GE(batched, 2 * unbatched)
        << "unbatched=" << unbatched << " batched=" << batched;
}

TEST(EdgeFleetTest, ReportAccountsForEveryFrame)
{
    EdgeFleetConfig cfg;
    cfg.clients = 6;
    cfg.duration = 4 * kSecond;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.sent, 0u);
    // Every captured frame ends served or in local fallback
    // (breaker-skipped, lost, rejected, or shed).
    EXPECT_EQ(report.sent, report.served + report.fallback);
    EXPECT_GT(report.servedRatio(), 0.9);
    EXPECT_GT(report.p99_ms, report.p50_ms * 0.999);
    EXPECT_FALSE(report.csv().empty());
    ASSERT_EQ(report.clients.size(), 6u);
}

TEST(EdgeFleetTest, LossyLinkDrivesLocalFallback)
{
    EdgeFleetConfig cfg;
    cfg.clients = 4;
    cfg.duration = 4 * kSecond;
    cfg.link.loss_rate = 0.35;
    cfg.breaker.failure_threshold = 2;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.lost, 0u);
    EXPECT_GT(report.fallback, report.lost); // Breaker skips add more.
    EXPECT_EQ(report.sent, report.served + report.fallback);
}

TEST(EdgeFleetTest, OverloadShedsInsteadOfQueueingToDeath)
{
    // Far past capacity on unbatched serving: the server must shed /
    // reject (bounded queues, deadline admission) rather than serve
    // everything arbitrarily late.
    EdgeFleetConfig cfg;
    cfg.clients = 48;
    cfg.duration = 2 * kSecond;
    cfg.server.max_batch = 1;
    const EdgeFleetReport report = runEdgeFleet(cfg);
    EXPECT_GT(report.shed + report.rejected, 0u);
    // Served poses stay near the SLO: lateness is bounded by
    // admission control, not by queue length.
    EXPECT_LT(report.p99_ms, 4.0 * cfg.slo_ms);
}

TEST(EdgeSessionTest, AttachEdgeClientRejectsUnknownLink)
{
    SessionConfig sc;
    sc.edge.link = "carrier-pigeon";
    std::string error;
    EXPECT_FALSE(attachEdgeClient(sc, 1, nullptr, &error));
    EXPECT_NE(error.find("carrier-pigeon"), std::string::npos);
    EXPECT_FALSE(sc.vio_factory);
}

TEST(EdgeSessionTest, EdgeServedSessionTracksAndExportsEdgeExtras)
{
    SessionConfig sc;
    sc.duration = 2 * kSecond;
    sc.edge.link = "ethernet";
    std::string error;
    ASSERT_TRUE(attachEdgeClient(sc, 1, nullptr, &error)) << error;

    Session session{std::move(sc)};
    session.start();
    const IntegratedResult &result = session.result();

    // The edge-served tracker kept the pose stream alive...
    EXPECT_GT(result.vio_trajectory.size(), 20u);
    EXPECT_GE(result.achievedHz("vio"), 0.9 * 15.0);
    // ...its verdict tallies made it into the result...
    ASSERT_TRUE(result.extra.count("edge_served"));
    EXPECT_GT(result.extra.at("edge_served"), 20.0);
    EXPECT_TRUE(result.extra.count("pose_round_trip_ms"));
    // ...and the per-session registry saw the server + link traffic.
    ASSERT_NE(result.metrics, nullptr);
    EXPECT_GT(result.metrics->counter("edge.served").value(), 0u);
    EXPECT_GT(
        result.metrics->counter("net.edge-ethernet.sent").value(), 0u);
}

TEST(EdgeSessionTest, FleetOfSessionsSharesOneServer)
{
    // Three sessions as a client swarm on ONE server: every client
    // connects under its own key and gets served.
    auto server = makeEdgeServer(EdgeOptions{});
    SessionManager manager(3);
    std::vector<std::shared_ptr<Session>> sessions;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        SessionConfig sc;
        sc.name = "edge-client-" + std::to_string(id);
        sc.duration = 1 * kSecond;
        sc.edge.link = "ethernet";
        std::string error;
        ASSERT_TRUE(attachEdgeClient(sc, id, server, &error)) << error;
        sessions.push_back(manager.submit(std::move(sc)));
    }
    manager.drain();
    EXPECT_EQ(server->connectedClients(), 3u);
    EXPECT_GT(server->servedTotal(), 0u);
    for (auto &s : sessions) {
        const IntegratedResult &r = s->result();
        EXPECT_GT(r.extra.at("edge_served"), 0.0) << s->name();
    }
}

} // namespace
} // namespace illixr
