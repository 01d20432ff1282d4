/**
 * @file
 * The client-facing edge-serving interface: what an offloaded
 * component needs from an edge server, and nothing else.
 *
 * The paper's §II footnote 2 calls for "a generalized offloading
 * module that any component can use"; this is its service half. The
 * interface lives in src/offload (the client layer) so that client
 * stubs — OffloadedVioPlugin above all — depend only on the contract,
 * while the actual multi-tenant server (src/edge/EdgeServer) depends
 * on this layer and plugs in from above. That keeps the dependency
 * arrow pointing one way: edge -> offload -> xr -> runtime.
 *
 * Time is the caller's virtual timeline: the service never reads a
 * clock. Clients stamp requests (arrival = when the uplink matured)
 * and pump() the server forward; this is what makes deterministic
 * replay of an entire client fleet possible.
 */

#pragma once

#include "foundation/time.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace illixr {

/** One offloaded VIO frame update, as the server sees it. */
struct EdgeRequest
{
    /** Stable client key. Identity, NOT admission order: the server
     *  must never key behavior on the order clients connected. */
    std::uint64_t client = 0;
    /** Per-client sequence number (monotonic). */
    std::uint64_t seq = 0;
    /** Capture timestamp of the frame — the lineage root the pose
     *  deadline is derived from. */
    TimePoint frame_time = 0;
    /** Server-side arrival: capture + client compression + uplink. */
    TimePoint arrival = 0;
    /** Absolute pose deadline (frame_time + the client's SLO budget).
     *  Work that cannot meet it is shed, never queued to death. */
    TimePoint deadline = 0;
    /** Compressed payload size, for accounting. */
    std::size_t bytes = 0;
};

/** What happened to a request. */
enum class EdgeVerdict
{
    Served,   ///< Fused into a batch and computed before its deadline.
    Shed,     ///< Dropped by admission control: deadline unmeetable.
    Rejected, ///< Refused outright (unknown client / queue full).
};

const char *edgeVerdictName(EdgeVerdict verdict);

/** Server-side outcome of one request, polled by its client. */
struct EdgeCompletion
{
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    EdgeVerdict verdict = EdgeVerdict::Served;
    /** When the response leaves the server (service completed or the
     *  shed/reject decision was made). The client adds its downlink. */
    TimePoint done = 0;
    /** Modeled service time of the batch this request rode in. */
    double service_ms = 0.0;
    /** How many same-window requests were fused into that batch. */
    std::uint32_t batch_size = 0;
    /** Digest of the fused MSCKF update computed for this request —
     *  bit-identical across kernel widths (the determinism pin). */
    std::uint64_t digest = 0;
};

/**
 * Abstract edge server, as seen by one client stub.
 *
 * Lifecycle: connect() once per client, submit() per frame, pump()
 * to advance the server to the client's current virtual time, poll()
 * to collect matured completions. All methods are thread-safe in
 * concrete implementations (many session threads share one server).
 */
class EdgeService
{
  public:
    virtual ~EdgeService() = default;

    /** Register @p client. @return false when the server is full or
     *  the key is already connected. */
    virtual bool connect(std::uint64_t client) = 0;

    /** Drop @p client and its queued work. */
    virtual void disconnect(std::uint64_t client) = 0;

    /**
     * Start barrier, called by @p client just before its virtual clock
     * starts. Sessions sharing a server each start their clock at 0;
     * holding them until every connected client arrives keeps their
     * clocks aligned in wall time. Default: no barrier.
     */
    virtual void awaitFleetStart(std::uint64_t client) { (void)client; }

    /**
     * Offer a request to admission control. @return false when the
     * request was rejected outright (no completion is produced);
     * admitted requests always produce exactly one completion, with
     * verdict Served or Shed.
     */
    virtual bool submit(const EdgeRequest &request) = 0;

    /** Advance the server's batch engine to virtual time @p now. */
    virtual void pump(TimePoint now) = 0;

    /** Collect (and clear) @p client's matured completions. */
    virtual std::vector<EdgeCompletion> poll(std::uint64_t client) = 0;
};

} // namespace illixr
