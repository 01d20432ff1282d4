#include "edge/edge_session.hpp"

#include "offload/offload_vio.hpp"
#include "trace/metrics_registry.hpp"

namespace illixr {

std::shared_ptr<EdgeServer>
makeEdgeServer(const EdgeOptions &options)
{
    EdgeServerConfig sc;
    sc.max_batch = options.max_batch;
    return std::make_shared<EdgeServer>(sc);
}

bool
attachEdgeClient(SessionConfig &config, std::uint64_t client_id,
                 std::shared_ptr<EdgeServer> server, std::string *error)
{
    NetworkLink link;
    if (!NetworkLink::byName(config.edge.link, link)) {
        if (error)
            *error = "unknown edge link preset: " + config.edge.link;
        return false;
    }
    // A server created here belongs to this one session, so its
    // edge.* metrics can land in the session's registry (wired inside
    // the factory, once the registry exists). A caller-provided
    // server is shared across sessions — its metrics sink stays the
    // caller's business.
    const bool owned = !server;
    if (!server)
        server = makeEdgeServer(config.edge);
    // Join the fleet now, not when the session builds its plugins, so
    // the start barrier waits for sessions still in set-up.
    server->connect(client_id);

    OffloadConfig offload;
    offload.link = link;
    offload.link_seed = NetworkModel::linkSeed(config.seed, client_id);
    offload.edge = server;
    offload.client_id = client_id;
    offload.deadline_slo_ms = config.edge.slo_ms;

    config.edge.enabled = true;
    config.vio_factory = [offload, server, owned](
                             const Phonebook &pb,
                             const SystemTuning &tuning) {
        if (owned && pb.has<MetricsRegistry>())
            server->setMetrics(pb.lookup<MetricsRegistry>().get());
        return std::make_unique<OffloadedVioPlugin>(pb, tuning, offload);
    };
    return true;
}

} // namespace illixr
