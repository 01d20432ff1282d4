#include "edge/edge_server.hpp"

#include "trace/metrics_registry.hpp"
#include "trace/trace.hpp"

#include <algorithm>

namespace illixr {

namespace {

/** The one canonical request order: (arrival, client, seq). */
bool
requestBefore(const EdgeRequest &a, const EdgeRequest &b)
{
    if (a.arrival != b.arrival)
        return a.arrival < b.arrival;
    if (a.client != b.client)
        return a.client < b.client;
    return a.seq < b.seq;
}

} // namespace

EdgeServer::EdgeServer(const EdgeServerConfig &config) : config_(config)
{
    if (config_.max_batch == 0)
        config_.max_batch = 1;
    if (config_.max_queue == 0)
        config_.max_queue = 1;
}

void
EdgeServer::setMetrics(MetricsRegistry *metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!metrics) {
        servedCounter_ = shedCounter_ = rejectedCounter_ =
            batchesCounter_ = nullptr;
        batchSizeHist_ = serviceMsHist_ = waitMsHist_ = nullptr;
        queueDepthGauge_ = nullptr;
        return;
    }
    servedCounter_ = &metrics->counter("edge.served");
    shedCounter_ = &metrics->counter("edge.shed");
    rejectedCounter_ = &metrics->counter("edge.rejected");
    batchesCounter_ = &metrics->counter("edge.batches");
    batchSizeHist_ = &metrics->histogram("edge.batch_size");
    serviceMsHist_ = &metrics->histogram("edge.service_ms");
    waitMsHist_ = &metrics->histogram("edge.wait_ms");
    queueDepthGauge_ = &metrics->gauge("edge.queue_depth");
}

void
EdgeServer::setTraceSink(TraceSink *sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sink_ = sink;
}

bool
EdgeServer::connect(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (clients_.size() >= config_.max_clients ||
        clients_.count(client))
        return false;
    clients_.emplace(client, ClientState{});
    return true;
}

void
EdgeServer::disconnect(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [client](const EdgeRequest &r) {
                                      return r.client == client;
                                  }),
                   pending_.end());
    clients_.erase(client);
    started_cv_.notify_all();
}

void
EdgeServer::awaitFleetStart(std::uint64_t client)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = clients_.find(client);
    if (it == clients_.end())
        return;
    it->second.started = true;
    started_cv_.notify_all();
    started_cv_.wait_for(lock, kFleetStartTimeout, [this] {
        return std::all_of(clients_.begin(), clients_.end(),
                           [](const auto &c) { return c.second.started; });
    });
}

double
EdgeServer::batchServiceMs(std::size_t n) const
{
    if (n == 0)
        return 0.0;
    return config_.dispatch_overhead_ms +
           config_.per_request_ms * static_cast<double>(n);
}

bool
EdgeServer::submit(const EdgeRequest &request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(request.client);
    if (it == clients_.end() || it->second.queued >= config_.max_queue) {
        ++rejected_;
        if (rejectedCounter_)
            rejectedCounter_->add();
        return false;
    }

    // Deadline-aware admission: if the pose cannot arrive in time even
    // when served next — alone, with no batching wait — shed NOW so
    // the client falls back immediately instead of queueing to death.
    const TimePoint earliest =
        std::max(busy_until_, request.arrival) +
        fromSeconds(batchServiceMs(1) / 1000.0);
    if (earliest > request.deadline) {
        ++shed_;
        if (shedCounter_)
            shedCounter_->add();
        EdgeCompletion c;
        c.client = request.client;
        c.seq = request.seq;
        c.verdict = EdgeVerdict::Shed;
        c.done = request.arrival;
        it->second.done.push_back(c);
        return true;
    }

    auto pos = std::upper_bound(pending_.begin(), pending_.end(),
                                request, requestBefore);
    pending_.insert(pos, request);
    ++it->second.queued;
    return true;
}

bool
EdgeServer::tryRunBatchLocked(TimePoint now)
{
    // Launch trigger: the head batch fills, or the head request's
    // window expires — a pure function of arrival times, never of
    // pump cadence.
    TimePoint trigger = pending_.front().arrival + config_.batch_window;
    if (pending_.size() >= config_.max_batch)
        trigger =
            std::min(trigger, pending_[config_.max_batch - 1].arrival);
    const TimePoint start = std::max(trigger, busy_until_);

    // Members: everything that arrived by the start, up to the batch
    // cap (pending_ is kept sorted).
    std::size_t k = 0;
    while (k < pending_.size() && k < config_.max_batch &&
           pending_[k].arrival <= start)
        ++k;
    if (k == 0)
        return false; // Head is in the future.

    const TimePoint done_full =
        start + fromSeconds(batchServiceMs(k) / 1000.0);
    if (done_full > now)
        return false; // Batch still in service at `now`.

    // Shed members that would receive a pose already past its
    // deadline; dropping them only makes the survivors *earlier*.
    std::vector<EdgeRequest> members(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(k));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(k));
    std::vector<BatchVioItem> items;
    std::vector<const EdgeRequest *> run;
    items.reserve(members.size());
    for (const EdgeRequest &r : members) {
        auto it = clients_.find(r.client);
        if (it == clients_.end())
            continue; // Disconnected while queued.
        --it->second.queued;
        if (r.deadline < done_full) {
            ++shed_;
            if (shedCounter_)
                shedCounter_->add();
            EdgeCompletion c;
            c.client = r.client;
            c.seq = r.seq;
            c.verdict = EdgeVerdict::Shed;
            c.done = start;
            it->second.done.push_back(c);
            continue;
        }
        items.push_back({r.client, r.seq});
        run.push_back(&r);
    }
    if (run.empty())
        return true; // All shed; the server never went busy.

    const double service_ms = batchServiceMs(run.size());
    const TimePoint done = start + fromSeconds(service_ms / 1000.0);
    const std::vector<std::uint64_t> digests =
        fusedMsckfUpdate(items, config_.vio);

    for (std::size_t i = 0; i < run.size(); ++i) {
        const EdgeRequest &r = *run[i];
        ClientState &cs = clients_.at(r.client);
        EdgeCompletion c;
        c.client = r.client;
        c.seq = r.seq;
        c.verdict = EdgeVerdict::Served;
        c.done = done;
        c.service_ms = service_ms;
        c.batch_size = static_cast<std::uint32_t>(run.size());
        c.digest = digests[i];
        cs.done.push_back(c);
        cs.service_ms.add(toMilliseconds(done - r.arrival));
        ++served_;
        if (servedCounter_)
            servedCounter_->add();
        if (waitMsHist_)
            waitMsHist_->observe(toMilliseconds(start - r.arrival));
    }
    busy_until_ = done;
    ++batches_;
    if (batchesCounter_)
        batchesCounter_->add();
    if (batchSizeHist_)
        batchSizeHist_->observe(static_cast<double>(run.size()));
    if (serviceMsHist_)
        serviceMsHist_->observe(service_ms);
    if (sink_) {
        Span span;
        span.task = "edge.batch";
        span.arrival = run.front()->arrival;
        span.start = start;
        span.completion = done;
        span.host_seconds = service_ms / 1000.0;
        sink_->recordSpan(span);
    }
    return true;
}

void
EdgeServer::pump(TimePoint now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (!pending_.empty() && tryRunBatchLocked(now)) {
    }
    if (queueDepthGauge_)
        queueDepthGauge_->set(static_cast<double>(pending_.size()));
}

std::vector<EdgeCompletion>
EdgeServer::poll(std::uint64_t client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(client);
    if (it == clients_.end())
        return {};
    std::vector<EdgeCompletion> out;
    out.swap(it->second.done);
    return out;
}

std::size_t
EdgeServer::connectedClients() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clients_.size();
}

std::size_t
EdgeServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

std::uint64_t
EdgeServer::servedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
}

std::uint64_t
EdgeServer::shedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shed_;
}

std::uint64_t
EdgeServer::rejectedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
}

std::uint64_t
EdgeServer::batchesTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
}

SampleSeries
EdgeServer::clientServiceMs(std::uint64_t client) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(client);
    return it == clients_.end() ? SampleSeries{}
                                : it->second.service_ms;
}

} // namespace illixr
