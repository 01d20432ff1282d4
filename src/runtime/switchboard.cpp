#include "runtime/switchboard.hpp"

#include "trace/metrics_registry.hpp"

#include <algorithm>

namespace illixr {

// ---------------------------------------------------------------------------
// SyncReader: bounded ring with per-cell sequence validation.
//
// The producer side (push) runs under the topic publish lock, so there
// is exactly one producer; the consumer side (popCell) is CAS-based
// because the producer also acts as a consumer when it evicts the
// oldest event on overflow, and may race the reader doing so.
// ---------------------------------------------------------------------------

void
SyncReader::init(std::size_t capacity)
{
    std::size_t cap = 1;
    while (cap < capacity)
        cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i)
        cells_[i].seq.store(i, std::memory_order_relaxed);
    mask_ = cap - 1;
}

std::size_t
SyncReader::push(const EventPtr &event)
{
    std::size_t evictions = 0;
    for (;;) {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        Cell &cell = cells_[t & mask_];
        if (cell.seq.load(std::memory_order_acquire) == t) {
            cell.value = event;
            cell.seq.store(t + 1, std::memory_order_release);
            tail_.store(t + 1, std::memory_order_release);
            return evictions;
        }
        // Ring full: evict the oldest queued event so the survivors
        // are always the newest `capacity()` events, exactly like the
        // historical deque policy. The consumer may drain the cell
        // first, in which case the retry simply finds room.
        EventPtr victim;
        if (popCell(victim)) {
            ++evictions;
            dropped_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

bool
SyncReader::popCell(EventPtr &out)
{
    for (;;) {
        std::uint64_t h = head_.load(std::memory_order_relaxed);
        Cell &cell = cells_[h & mask_];
        const std::uint64_t s = cell.seq.load(std::memory_order_acquire);
        const std::int64_t diff =
            static_cast<std::int64_t>(s) - static_cast<std::int64_t>(h + 1);
        if (diff < 0)
            return false; // seq == head: cell not yet produced — empty.
        if (diff == 0) {
            if (head_.compare_exchange_weak(h, h + 1,
                                            std::memory_order_relaxed)) {
                out = std::move(cell.value);
                // Recycle the cell for the producer one lap ahead
                // (position h + capacity expects seq == h + capacity).
                cell.seq.store(h + mask_ + 1, std::memory_order_release);
                return true;
            }
            continue; // Lost the CAS to the other dequeuer; retry.
        }
        // diff > 0: another dequeuer already claimed this cell; retry
        // from the advanced head.
    }
}

EventPtr
SyncReader::pop()
{
    EventPtr e;
    if (!popCell(e))
        return nullptr;
    // Reading an event inside an executor invocation marks it as a
    // causal input of whatever the invocation publishes.
    TraceContext::noteConsumed(e->trace);
    return e;
}

std::size_t
SyncReader::popAll(std::vector<EventPtr> &out)
{
    std::size_t n = 0;
    EventPtr e;
    while (popCell(e)) {
        TraceContext::noteConsumed(e->trace);
        out.push_back(std::move(e));
        ++n;
    }
    return n;
}

std::size_t
SyncReader::pending() const
{
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
}

std::size_t
SyncReader::dropped() const
{
    return static_cast<std::size_t>(
        dropped_.load(std::memory_order_acquire));
}

// ---------------------------------------------------------------------------
// Switchboard
// ---------------------------------------------------------------------------

Switchboard::TopicPtr
Switchboard::topicForUntyped(const std::string &topic)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TopicPtr &t = topics_[topic];
    if (!t) {
        t = std::make_shared<TopicState>();
        t->name = topic;
        by_index_.push_back(t);
        t->index = static_cast<std::uint32_t>(by_index_.size());
        t->sink = sink_;
        t->hook = hook_;
        wireTopicMetricsLocked(*t);
    }
    return t;
}

Switchboard::TopicPtr
Switchboard::topicFor(const std::string &topic, std::type_index type)
{
    TopicPtr t = topicForUntyped(topic);
    std::lock_guard<std::mutex> lock(t->mutex);
    if (t->type == std::type_index(typeid(void))) {
        t->type = type;
    } else if (t->type != type) {
        throw std::logic_error("switchboard: topic '" + topic +
                               "' already carries a different payload "
                               "type");
    }
    return t;
}

std::shared_ptr<SyncReader>
Switchboard::attachSyncReader(const TopicPtr &t, std::size_t capacity)
{
    // The topic's fan-out list holds a raw pointer; ownership lives in
    // the returned shared_ptr, whose deleter detaches the raw entry
    // under the topic mutex before deleting. publish therefore
    // iterates plain pointers — no per-reader weak_ptr lock, and the
    // detach serializes against any in-flight publish.
    SyncReader *raw = new SyncReader();
    raw->init(capacity == 0 ? 1 : capacity);
    std::shared_ptr<SyncReader> reader(raw, [t](SyncReader *r) {
        {
            std::lock_guard<std::mutex> lock(t->mutex);
            auto &v = t->readers;
            v.erase(std::remove(v.begin(), v.end(), r), v.end());
        }
        delete r;
    });
    std::lock_guard<std::mutex> lock(t->mutex);
    t->readers.push_back(raw);
    return reader;
}

std::size_t
Switchboard::effectiveCapacity(std::size_t requested) const
{
    if (requested != 0)
        return requested;
    std::lock_guard<std::mutex> lock(mutex_);
    return default_ring_capacity_;
}

void
Switchboard::publishToTopic(const TopicPtr &t, EventPtr event)
{
    TraceId id;
    std::vector<TraceId> parents;
    std::shared_ptr<TraceSink> sink;
    std::vector<std::shared_ptr<PublishListener>> listeners;
    TimePoint event_time = 0;
    {
        std::lock_guard<std::mutex> lock(t->mutex);
        ++t->publish_attempts;
        if (t->hook) {
            // The event is still exclusively held: the hook may
            // corrupt it in place or veto the publish entirely.
            Event *mut = const_cast<Event *>(event.get());
            if (!(*t->hook)(t->name, t->publish_attempts, *mut)) {
                if (t->sink)
                    t->sink->recordSkip(t->name,
                                        TraceContext::active()
                                            ? TraceContext::now()
                                            : event->time,
                                        SkipCause::InjectedDrop);
                return;
            }
        }
        ++t->publish_count;
        id = TraceId{t->index, t->publish_count};

        // Stamp the (still exclusively held) event. Events are
        // immutable from the readers' perspective; the switchboard is
        // the single writer of the trace fields and does so before
        // any fan-out.
        Event *mut = const_cast<Event *>(event.get());
        mut->trace = id;
        if (mut->parents.empty() && TraceContext::active())
            mut->parents = TraceContext::consumed();
        sink = t->sink;
        if (sink)
            parents = mut->parents;
        if (t->m_publishes)
            t->m_publishes->add(1);

        // Fan out to the synchronous readers (detach-on-destroy keeps
        // every entry live; see attachSyncReader).
        for (SyncReader *reader : t->readers) {
            const std::size_t drops = reader->push(event);
            if (drops) {
                if (t->m_drops)
                    t->m_drops->add(drops);
                if (t->m_reader_dropped)
                    t->m_reader_dropped->add(drops);
                if (sink)
                    sink->recordSkip(t->name, TraceContext::now(),
                                     SkipCause::QueueDrop);
            }
        }

        // Store the latest value last, still under the topic mutex so
        // stores land in publish order. The swap hands the previous
        // event back to `event`, which frees it after both locks drop.
        event_time = event->time;
        {
            std::lock_guard<std::mutex> latest_lock(t->latest_mutex);
            t->latest.swap(event);
        }

        // Snapshot live listeners; they run after the lock drops so a
        // listener may publish, subscribe, or wake a worker pool
        // without deadlocking against this topic.
        auto lit = t->listeners.begin();
        while (lit != t->listeners.end()) {
            if (auto listener = lit->lock()) {
                listeners.push_back(std::move(listener));
                ++lit;
            } else {
                lit = t->listeners.erase(lit);
            }
        }
    }

    if (sink) {
        EventRecord rec;
        rec.id = id;
        rec.parents = std::move(parents);
        rec.topic = t->name;
        rec.event_time = event_time;
        rec.publish_time =
            TraceContext::active() ? TraceContext::now() : event_time;
        rec.span = TraceContext::currentSpan();
        sink->recordEvent(std::move(rec));
    }

    for (const auto &listener : listeners) {
        // One throwing listener must not skip the rest or poison the
        // topic: contain, count, continue.
        try {
            (*listener)(t->name);
        } catch (...) {
            t->listener_exceptions.fetch_add(1,
                                             std::memory_order_relaxed);
        }
    }
}

PublishListenerHandle
Switchboard::onPublish(const std::string &topic, PublishListener listener)
{
    auto handle = std::make_shared<PublishListener>(std::move(listener));
    TopicPtr t = topicForUntyped(topic);
    std::lock_guard<std::mutex> lock(t->mutex);
    t->listeners.push_back(handle);
    return handle;
}

std::size_t
Switchboard::publishCount(const std::string &topic) const
{
    TopicPtr t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = topics_.find(topic);
        if (it == topics_.end())
            return 0;
        t = it->second;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    return t->publish_count;
}

std::vector<std::string>
Switchboard::topicNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(topics_.size());
    for (const auto &[name, topic] : topics_)
        names.push_back(name);
    return names;
}

std::uint32_t
Switchboard::topicIndex(const std::string &topic) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = topics_.find(topic);
    if (it == topics_.end())
        return 0;
    return it->second->index;
}

void
Switchboard::setTraceSink(std::shared_ptr<TraceSink> sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sink_ = sink;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        topic->sink = sink;
    }
}

void
Switchboard::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = metrics;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        wireTopicMetricsLocked(*topic);
    }
}

void
Switchboard::wireTopicMetricsLocked(TopicState &t) const
{
    if (!metrics_) {
        // Detach: per-run registries die with the run; dangling
        // cached handles were PR 4's kernel-pool bug.
        t.m_publishes = nullptr;
        t.m_drops = nullptr;
        t.m_reader_dropped = nullptr;
        return;
    }
    t.m_publishes =
        &metrics_->counter("sb.topic." + t.name + ".publishes");
    t.m_drops = &metrics_->counter("sb.topic." + t.name + ".drops");
    t.m_reader_dropped = &metrics_->counter("sb.reader.dropped");
}

void
Switchboard::flushMetrics()
{
}

void
Switchboard::setDefaultRingCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    default_ring_capacity_ = capacity == 0 ? 1024 : capacity;
}

void
Switchboard::setPublishHook(PublishHookHandle hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = hook;
    for (auto &[name, topic] : topics_) {
        std::lock_guard<std::mutex> tlock(topic->mutex);
        topic->hook = hook;
    }
}

std::uint64_t
Switchboard::publishAttempts(const std::string &topic) const
{
    TopicPtr t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = topics_.find(topic);
        if (it == topics_.end())
            return 0;
        t = it->second;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    return t->publish_attempts;
}

std::size_t
Switchboard::listenerExceptions() const
{
    std::vector<TopicPtr> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot.reserve(topics_.size());
        for (const auto &[name, topic] : topics_)
            snapshot.push_back(topic);
    }
    std::size_t total = 0;
    for (const TopicPtr &t : snapshot)
        total += t->listener_exceptions.load(std::memory_order_relaxed);
    return total;
}

} // namespace illixr

