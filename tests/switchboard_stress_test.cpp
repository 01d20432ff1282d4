/**
 * @file
 * Multi-threaded switchboard stress tests: concurrent typed writers
 * against sync + async readers, checking per-topic ordering, exact
 * publish/drop accounting, and handle semantics under contention.
 * Built into the ThreadSanitizer CI job, so any data race in the
 * publish/fan-out/pop paths fails the build.
 */

#include "runtime/switchboard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace illixr {
namespace {

struct IntEvent : Event
{
    int writer = 0;
    int value = 0;
};

TEST(SwitchboardStressTest, ConcurrentWritersAndReaders)
{
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 2000;
    constexpr std::size_t kCapacity = 100000; // No drops in this test.

    Switchboard sb;
    auto reader = sb.reader<IntEvent>("t", kCapacity);
    auto peek = sb.asyncReader<IntEvent>("t");

    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&sb, &go, w] {
            auto writer = sb.writer<IntEvent>("t");
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerWriter; ++i) {
                auto e = makeEvent<IntEvent>();
                e->writer = w;
                e->value = i;
                writer.put(std::move(e));
            }
        });
    }

    // A concurrent async reader exercising latest() against the
    // publish path; every observed event must be fully stamped, and
    // with four writers racing latest() may repeat but never goes
    // backwards.
    std::thread peeker([&peek, &done] {
        std::uint64_t last_seq = 0;
        while (!done.load()) {
            if (auto e = peek.latest()) {
                EXPECT_TRUE(e->trace.valid());
                EXPECT_GE(e->trace.sequence, last_seq);
                last_seq = e->trace.sequence;
            }
            std::this_thread::yield();
        }
    });

    // Popping consumer, concurrent with the writers.
    std::vector<int> next_value(kWriters, 0);
    std::uint64_t last_seq = 0;
    std::size_t popped = 0;
    go.store(true);
    while (popped < static_cast<std::size_t>(kWriters * kPerWriter)) {
        auto e = reader.pop();
        if (!e) {
            std::this_thread::yield();
            continue;
        }
        ++popped;
        // Topic sequence numbers arrive strictly increasing...
        EXPECT_GT(e->trace.sequence, last_seq);
        last_seq = e->trace.sequence;
        // ...and each writer's own values stay in program order.
        ASSERT_LT(e->writer, kWriters);
        EXPECT_EQ(e->value, next_value[e->writer]);
        ++next_value[e->writer];
    }
    done.store(true);
    for (auto &t : writers)
        t.join();
    peeker.join();

    EXPECT_EQ(popped, static_cast<std::size_t>(kWriters * kPerWriter));
    EXPECT_EQ(reader.dropped(), 0u);
    EXPECT_EQ(reader.pending(), 0u);
    EXPECT_EQ(sb.publishCount("t"),
              static_cast<std::size_t>(kWriters * kPerWriter));
}

TEST(SwitchboardStressTest, DropAccountingIsExact)
{
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 1000;
    constexpr std::size_t kCapacity = 16;

    Switchboard sb;
    auto reader = sb.reader<IntEvent>("t", kCapacity);

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&sb] {
            auto writer = sb.writer<IntEvent>("t");
            for (int i = 0; i < kPerWriter; ++i)
                writer.put(makeEvent<IntEvent>());
        });
    }
    for (auto &t : writers)
        t.join();

    // Queue was bounded while nobody popped: everything published is
    // either still pending or counted as dropped — nothing vanishes.
    EXPECT_EQ(reader.pending(), kCapacity);
    EXPECT_EQ(reader.pending() + reader.dropped(),
              static_cast<std::size_t>(kWriters * kPerWriter));

    // Drain: the survivors are the newest events, still in order.
    std::uint64_t last_seq = 0;
    while (auto e = reader.pop()) {
        EXPECT_GT(e->trace.sequence, last_seq);
        last_seq = e->trace.sequence;
    }
    EXPECT_EQ(last_seq, static_cast<std::uint64_t>(kWriters * kPerWriter));
}

TEST(SwitchboardStressTest, DroppedReadableWhilePublishing)
{
    // dropped() used to read the counter without the queue mutex — a
    // data race under TSan. Hammer it concurrently with a publisher.
    Switchboard sb;
    auto reader = sb.reader<IntEvent>("t", 4);
    std::thread writer([&sb] {
        auto w = sb.writer<IntEvent>("t");
        for (int i = 0; i < 20000; ++i)
            w.put(makeEvent<IntEvent>());
    });
    std::size_t last = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::size_t d = reader.dropped();
        EXPECT_GE(d, last); // Monotone.
        last = d;
        std::this_thread::yield();
    }
    writer.join();
    EXPECT_EQ(reader.pending() + reader.dropped(), 20000u);
}

TEST(SwitchboardStressTest, TypeLockRejectsMismatchedHandles)
{
    struct OtherEvent : Event
    {
    };
    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    (void)writer;
    EXPECT_THROW(sb.asyncReader<OtherEvent>("t"), std::logic_error);
    EXPECT_THROW(sb.reader<OtherEvent>("t"), std::logic_error);
    // Same type is always fine, from any thread.
    std::thread other([&sb] {
        EXPECT_NO_THROW(sb.writer<IntEvent>("t"));
    });
    other.join();
}

TEST(SwitchboardStressTest, ConcurrentHandleCreation)
{
    // Topic interning and handle creation race against publishing.
    Switchboard sb;
    std::atomic<std::size_t> seen{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&sb, &seen, t] {
            const std::string topic = "t" + std::to_string(t % 4);
            auto writer = sb.writer<IntEvent>(topic);
            auto reader = sb.asyncReader<IntEvent>(topic);
            for (int i = 0; i < 500; ++i) {
                writer.put(makeEvent<IntEvent>());
                if (reader.latest())
                    seen.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(seen.load(), 8u * 500u);
    EXPECT_EQ(sb.topicNames().size(), 4u);
}

TEST(SwitchboardStressTest, SeqlockSpinnersNeverBlockPublisher)
{
    // 1 writer + N async readers spinning latest() as fast as they
    // can. latest() must (a) never tear an event (every observation
    // is fully stamped with a monotone sequence) and (b) never wedge
    // the publisher while readers hammer it continuously.
    constexpr int kSpinners = 3;
    constexpr int kPublishes = 20000;

    Switchboard sb;
    auto writer = sb.writer<IntEvent>("t");
    std::atomic<bool> done{false};

    std::vector<std::thread> spinners;
    for (int s = 0; s < kSpinners; ++s) {
        spinners.emplace_back([&sb, &done] {
            auto peek = sb.asyncReader<IntEvent>("t");
            std::uint64_t last_seq = 0;
            while (!done.load(std::memory_order_relaxed)) {
                if (auto e = peek.latest()) {
                    EXPECT_TRUE(e->trace.valid());
                    // latest() may repeat but never goes backwards.
                    EXPECT_GE(e->trace.sequence, last_seq);
                    last_seq = e->trace.sequence;
                    // The payload was stamped before publication.
                    EXPECT_EQ(e->value,
                              static_cast<int>(e->trace.sequence));
                }
            }
        });
    }

    for (int i = 0; i < kPublishes; ++i) {
        auto e = writer.make();
        e->value = i + 1; // Matches the 1-based topic sequence.
        writer.put(std::move(e));
    }
    done.store(true);
    for (auto &t : spinners)
        t.join();
    EXPECT_EQ(sb.publishCount("t"), static_cast<std::size_t>(kPublishes));
}

TEST(SwitchboardStressTest, RingWraparoundUnderOverflow)
{
    // Tiny ring, fast writer, slow batch consumer: the ring wraps
    // thousands of times and constantly evicts. Every event is either
    // drained or counted dropped, and drained events arrive strictly
    // in publish order even across wrap/evict races.
    constexpr int kPublishes = 50000;
    constexpr std::size_t kCapacity = 8;

    Switchboard sb;
    auto reader = sb.reader<IntEvent>("t", kCapacity);
    std::thread writer([&sb] {
        auto w = sb.writer<IntEvent>("t");
        for (int i = 0; i < kPublishes; ++i)
            w.put(w.make());
    });

    std::size_t popped = 0;
    std::uint64_t last_seq = 0;
    std::vector<std::shared_ptr<const IntEvent>> batch;
    while (popped + reader.dropped() <
           static_cast<std::size_t>(kPublishes)) {
        batch.clear();
        if (reader.popAll(batch) == 0) {
            std::this_thread::yield();
            continue;
        }
        for (const auto &e : batch) {
            EXPECT_GT(e->trace.sequence, last_seq);
            last_seq = e->trace.sequence;
        }
        popped += batch.size();
    }
    writer.join();
    batch.clear();
    popped += reader.popAll(batch);
    EXPECT_EQ(popped + reader.dropped(),
              static_cast<std::size_t>(kPublishes));
    EXPECT_EQ(reader.pending(), 0u);
}

TEST(SwitchboardStressTest, PoolRecycleUnderRead)
{
    // Readers hold events while the writer keeps publishing, and older
    // events are freed as fast as references die. An event a reader
    // still holds must never be freed under it: its payload stays
    // bit-stable no matter how many later events are published.
    constexpr int kPublishes = 20000;

    Switchboard sb;
    auto reader = sb.reader<IntEvent>("t", 64);
    auto peek = sb.asyncReader<IntEvent>("t");
    std::atomic<bool> done{false};

    std::thread holder([&peek, &done] {
        while (!done.load(std::memory_order_relaxed)) {
            auto held = peek.latest();
            if (!held) {
                std::this_thread::yield();
                continue;
            }
            const int v = held->value;
            const std::uint64_t s = held->trace.sequence;
            // Spin a little while the writer frees other events.
            for (int i = 0; i < 64; ++i)
                std::this_thread::yield();
            EXPECT_EQ(held->value, v);
            EXPECT_EQ(held->trace.sequence, s);
        }
    });

    std::thread drainer([&reader, &done] {
        std::vector<std::shared_ptr<const IntEvent>> batch;
        while (!done.load(std::memory_order_relaxed)) {
            batch.clear();
            reader.popAll(batch);
            for (const auto &e : batch)
                EXPECT_EQ(e->value, static_cast<int>(e->trace.sequence));
            std::this_thread::yield();
        }
    });

    auto writer = sb.writer<IntEvent>("t");
    for (int i = 0; i < kPublishes; ++i) {
        auto e = writer.make();
        e->value = i + 1;
        writer.put(std::move(e));
    }
    done.store(true);
    holder.join();
    drainer.join();
    EXPECT_EQ(sb.publishCount("t"), static_cast<std::size_t>(kPublishes));
}

} // namespace
} // namespace illixr
