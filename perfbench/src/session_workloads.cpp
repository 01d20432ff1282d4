/**
 * @file
 * The two Session workloads.
 *
 * sponza-replay: integrated Sessions on the deterministic virtual clock
 * (PoolExecutor, deterministic), Desktop, Sponza, kernel width 1,
 * program defaults otherwise. A closed loop with fixed virtual work.
 *
 * ar-live: Sessions on the live wall-clock PoolExecutor, 4 workers,
 * kernel width 1, Desktop, ArDemo. An open loop: sensors and vsync
 * follow the wall clock whatever the system does.
 *
 * A run is several short Sessions, each on its own lab-walk dataset
 * (subSeed(seed, i)), so one run's numbers average over head paths
 * instead of resting on one. The untraced Sessions use Session and
 * SessionConfig only: the public vio_factory hook, which returns a
 * stock VioPlugin, marks the end of set-up and attaches a display_frame
 * publish listener that stamps each displayed frame. The traced run
 * assembles the same plugin set from xr/plugins.hpp on the public
 * PoolExecutor, each plugin behind a forwarding Plugin that records a
 * span around iterate(). Its VIO plugin calls FeatureTracker and
 * MsckfFilter separately, as VioSystem::processFrame does, so the slam
 * layers get spans of their own; the pose CSV must still equal the
 * untraced Session's.
 */

#include "bench.hpp"

#include "foundation/trajectory_error.hpp"
#include "metrics/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/pool_executor.hpp"
#include "slam/msckf.hpp"
#include "xr/events.hpp"
#include "xr/plugins.hpp"
#include "xr/session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <set>

namespace perfbench {

using namespace illixr;

namespace {

/** The integrated plugin set, in Session assembly order. */
constexpr std::array<const char *, 8> kPlugins = {
    "camera",      "imu",      "vio",            "integrator",
    "application", "timewarp", "audio_encoding", "audio_playback"};

/** Topics whose publishes the traced run counts. */
constexpr std::array<const char *, 9> kTopics = {
    topics::kCamera,     topics::kImu,          topics::kSlowPose,
    topics::kFastPose,   topics::kSubmittedFrame, topics::kDisplayFrame,
    topics::kSoundfield, topics::kStereoAudio,  topics::kQoeFeedback};

/** Sessions of a traced run cover this much (virtual or wall) time, so
 *  the 120 Hz plugins reach the 1000 samples a p99 needs. */
constexpr Duration kTracedTotal = 10 * kSecond;

/** Length of the unmeasured warm-up Session an untraced run starts with. */
constexpr Duration kWarmUp = 1 * kSecond;

struct Spec
{
    AppId app;
    bool deterministic;
    Duration session; ///< Length of one Session (virtual or wall).
};

const SystemTuning kTuning{};
const Duration kVsync = periodFromHz(kTuning.display_hz);

/** Sessions of a traced run: kTracedTotal worth. */
std::size_t
tracedSessionCount(const Spec &spec)
{
    return static_cast<std::size_t>((kTracedTotal + spec.session - 1) /
                                    spec.session);
}

/** Passes an untraced run makes over each dataset. A deterministic
 *  Session repeats exactly, so a frame's cost is its least over the
 *  passes: a host stall seldom hits the same frame twice. A live Session
 *  does not repeat, so it gets one pass. */
std::size_t
passCount(const Spec &spec)
{
    return spec.deterministic ? 2 : 1;
}

/** Datasets of an untraced run: one Session per `session` of the run
 *  time over all passes, and never fewer than a traced run has, so every
 *  p99 keeps its 1000 samples. */
std::size_t
datasetCount(const Spec &spec, double seconds)
{
    return std::max<std::size_t>(
        tracedSessionCount(spec),
        static_cast<std::size_t>(std::lround(
            seconds / toSeconds(spec.session) /
            static_cast<double>(passCount(spec)))));
}

SessionConfig
sessionConfig(const Spec &spec, unsigned seed)
{
    SessionConfig c;
    c.name = "perfbench";
    c.platform = PlatformId::Desktop;
    c.app = spec.app;
    c.duration = spec.session;
    c.seed = seed;
    c.executor = ExecutorKind::Pool;
    c.pool_workers = 4;
    c.kernel_threads = 1;
    c.deterministic = spec.deterministic;
    return c;
}

/** Wall and CPU stamps of each display_frame publish. */
class DisplayClock
{
  public:
    void
    attach(Switchboard &sb)
    {
        handle_ = sb.onPublish(topics::kDisplayFrame,
                               [this](const std::string &) {
                                   const std::int64_t t = nowNs();
                                   const double cpu = processCpuSeconds();
                                   std::lock_guard<std::mutex> lock(mutex_);
                                   wall_ns_.push_back(t);
                                   cpu_s_.push_back(cpu);
                               });
    }

    std::size_t frames() const { return wall_ns_.size(); }

    /** Host ms between consecutive displayed frames. */
    std::vector<double>
    gapsMs() const
    {
        std::vector<double> gaps;
        for (std::size_t i = 1; i < wall_ns_.size(); ++i)
            gaps.push_back(1e-6 *
                           static_cast<double>(wall_ns_[i] - wall_ns_[i - 1]));
        return gaps;
    }

    /** Process CPU ms between consecutive displayed frames. */
    std::vector<double>
    cpuGapsMs() const
    {
        std::vector<double> gaps;
        for (std::size_t i = 1; i < cpu_s_.size(); ++i)
            gaps.push_back(1e3 * (cpu_s_[i] - cpu_s_[i - 1]));
        return gaps;
    }

  private:
    std::mutex mutex_;
    std::vector<std::int64_t> wall_ns_;
    std::vector<double> cpu_s_;
    PublishListenerHandle handle_;
};

/** What an untraced and a traced Session both leave behind. */
struct Outcome
{
    std::map<std::string, TaskStats> tasks;
    MtpSeries mtp;
    std::vector<StampedPose> trajectory;
    double ate_cm = 0.0;
    double setup_s = 0.0;
    std::vector<double> frame_gap_ms;
    std::vector<double> frame_cpu_ms;
    std::size_t displayed = 0;
    /// Plugin invocation attempts, skips and exceptions of the passes
    /// after the first over the same dataset.
    std::size_t later_attempts = 0, later_skips = 0, later_exceptions = 0;
};

void
collect(const DisplayClock &clock, const PreloadedDataset &data,
        Outcome &out)
{
    out.displayed = clock.frames();
    out.frame_gap_ms = clock.gapsMs();
    out.frame_cpu_ms = clock.cpuGapsMs();
    out.ate_cm = 100.0 * computeTrajectoryError(
                             out.trajectory,
                             data.dataset.groundTruthTrajectory())
                             .ate_rmse_m;
}

/** One untraced Session. */
Outcome
runSession(const Spec &spec, unsigned seed)
{
    Outcome out;
    DisplayClock clock;
    std::int64_t factory_ns = 0;
    std::shared_ptr<PreloadedDataset> data;
    SessionConfig config = sessionConfig(spec, seed);
    config.vio_factory = [&](const Phonebook &pb, const SystemTuning &t)
        -> std::unique_ptr<Plugin> {
        factory_ns = nowNs();
        data = pb.lookup<PreloadedDataset>();
        clock.attach(*pb.lookup<Switchboard>());
        return std::make_unique<VioPlugin>(pb, t);
    };
    Session session(std::move(config));
    const std::int64_t start_ns = nowNs();
    session.start();
    const IntegratedResult &result = session.result();
    out.setup_s = 1e-9 * static_cast<double>(factory_ns - start_ns);
    out.tasks = result.tasks;
    out.mtp = result.mtp;
    out.trajectory = result.vio_trajectory;
    collect(clock, *data, out);
    return out;
}

/** Forwarding plugin: a span around every iterate() of @p inner. */
class TracedPlugin : public Plugin
{
  public:
    TracedPlugin(Plugin &inner, SpanRecorder &spans)
        : Plugin(inner.name()), inner_(inner), spans_(spans),
          span_name_("xr." + inner.name())
    {
    }

    void start(const Phonebook &pb) override { inner_.start(pb); }
    void stop() override { inner_.stop(); }
    void
    iterate(TimePoint now) override
    {
        ScopedSpan span(spans_, span_name_, now / kVsync, now);
        inner_.iterate(now);
    }
    Duration period() const override { return inner_.period(); }
    ExecUnit execUnit() const override { return inner_.execUnit(); }
    bool skipOnOverrun() const override { return inner_.skipOnOverrun(); }

  private:
    Plugin &inner_;
    SpanRecorder &spans_;
    std::string span_name_;
};

/** Per-frame slam numbers of the traced VIO plugin. */
struct SlamSamples
{
    std::size_t updates = 0;      ///< EKF updates (MSCKF + SLAM).
    std::size_t observed = 0;     ///< Feature observations, all frames.
    std::size_t carried = 0;      ///< Of those, tracks from the last frame.
    std::size_t carried_base = 0; ///< Tracks in every frame but the last.
};

/**
 * VioPlugin::iterate() with VioSystem::processFrame split into its two
 * calls, FeatureTracker::processFrame and MsckfFilter::processFeatures,
 * each under a span. Same construction, inputs and outputs as
 * VioPlugin: the traced pose CSV must equal the untraced one.
 */
class TracedVioPlugin : public Plugin
{
  public:
    TracedVioPlugin(const Phonebook &pb, SpanRecorder &spans)
        : Plugin("vio"), data_(pb.lookup<PreloadedDataset>()),
          camera_(pb.lookup<Switchboard>()->reader<CameraFrameEvent>(
              topics::kCamera)),
          imu_(pb.lookup<Switchboard>()->reader<ImuEvent>(topics::kImu)),
          slow_pose_(pb.lookup<Switchboard>()->writer<PoseEvent>(
              topics::kSlowPose)),
          tracker_(trackerParams()), filter_(filterParams(*data_),
                                              data_->dataset.rig()),
          spans_(spans)
    {
    }

    void
    iterate(TimePoint now) override
    {
        ScopedSpan span(spans_, "xr.vio", now / kVsync, now);
        if (!filter_.initialized()) {
            ImuState init;
            const Pose p0 = data_->dataset.groundTruthPose(0);
            init.orientation = p0.orientation;
            init.position = p0.position;
            init.velocity = data_->dataset.trajectory().velocity(0.0);
            filter_.initialize(init);
        }
        while (auto imu = imu_.pop()) {
            ScopedSpan s(spans_, "slam.filter.imu", now / kVsync, now);
            filter_.addImu(imu->sample);
        }
        while (auto cam = camera_.pop()) {
            std::vector<FeatureObservation> obs;
            {
                ScopedSpan s(spans_, "slam.tracker", now / kVsync, now);
                obs = tracker_.processFrame(
                    std::shared_ptr<const ImageF>(cam, &cam->image));
            }
            {
                ScopedSpan s(spans_, "slam.filter", now / kVsync, now);
                filter_.processFeatures(cam->time, obs,
                                        tracker_.lostTracks());
            }
            auto out = slow_pose_.make();
            out->time = cam->time;
            out->state = filter_.state();
            slow_pose_.put(std::move(out));
            trajectory_.push_back({cam->time, filter_.state().pose()});
            countTracks(obs);
        }
        samples_.updates = filter_.updateCount();
    }
    Duration period() const override
    {
        return periodFromHz(kTuning.camera_hz);
    }
    const std::vector<StampedPose> *
    vioTrajectory() const override
    {
        return &trajectory_;
    }
    const SlamSamples &samples() const { return samples_; }

  private:
    // VioPlugin's tuning.
    static TrackerParams
    trackerParams()
    {
        TrackerParams p;
        p.max_features = 80;
        return p;
    }
    static MsckfParams
    filterParams(const PreloadedDataset &data)
    {
        MsckfParams p;
        p.imu_noise = data.dataset.config().imu_noise;
        return p;
    }

    void
    countTracks(const std::vector<FeatureObservation> &obs)
    {
        std::set<std::uint64_t> ids;
        for (const FeatureObservation &o : obs)
            ids.insert(o.feature_id);
        if (trajectory_.size() > 1) {
            samples_.carried_base += previous_ids_.size();
            for (std::uint64_t id : ids)
                samples_.carried += previous_ids_.count(id);
        }
        samples_.observed += ids.size();
        previous_ids_ = std::move(ids);
    }

    std::shared_ptr<PreloadedDataset> data_;
    Switchboard::Reader<CameraFrameEvent> camera_;
    Switchboard::Reader<ImuEvent> imu_;
    Switchboard::Writer<PoseEvent> slow_pose_;
    FeatureTracker tracker_;
    MsckfFilter filter_;
    SpanRecorder &spans_;
    std::vector<StampedPose> trajectory_;
    std::set<std::uint64_t> previous_ids_;
    SlamSamples samples_;
};

struct TracedOutcome : Outcome
{
    SlamSamples slam;
    double run_wall_s = 0.0;
    double synth_ms_per_frame = 0.0;
    std::map<std::string, std::uint64_t> publishes;
    std::uint64_t drops = 0;
    std::uint64_t registry_publishes = 0;
    std::uint64_t parallel_launches = 0;
    std::uint64_t kernel_launches = 0;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * The traced run: Session::runBody's assembly, rebuilt from the public
 * plugin classes (no resilience, tail or edge options: the workloads
 * use none), with every plugin behind a TracedPlugin.
 */
TracedOutcome
runTraced(const Spec &spec, unsigned seed, SpanRecorder &spans)
{
    TracedOutcome out;
    KernelPool &kernels = KernelPool::instance();
    kernels.setWidth(1);

    Phonebook pb;
    auto sb = std::make_shared<Switchboard>();
    pb.registerService(sb);
    auto metrics = std::make_shared<MetricsRegistry>();
    pb.registerService(metrics);
    sb->setMetrics(metrics.get());
    auto sink = std::make_shared<TraceSink>();
    sb->setTraceSink(sink);
    KernelPool::MetricsScope kernel_scope(metrics.get(), sink.get());

    DatasetConfig ds;
    ds.duration_s = toSeconds(spec.session) + 0.5;
    ds.image_width = IntegratedConfig{}.camera_width;
    ds.image_height = IntegratedConfig{}.camera_height;
    ds.camera_rate_hz = kTuning.camera_hz;
    ds.imu_rate_hz = kTuning.imu_hz;
    ds.preset = DatasetConfig::Preset::LabWalk;
    ds.seed = seed;
    std::shared_ptr<PreloadedDataset> data;
    {
        ScopedSpan span(spans, "sensors.synth");
        data = std::make_shared<PreloadedDataset>(ds, spec.session);
    }
    const SpanRecord synth = spans.spans().back();
    out.synth_ms_per_frame =
        1e-6 * static_cast<double>(synth.end_ns - synth.start_ns) /
        static_cast<double>(
            std::max<std::size_t>(1, data->camera_frames.size()));
    pb.registerService(data);

    AppConfig app_cfg;
    app_cfg.eye_width = IntegratedConfig{}.eye_size;
    app_cfg.eye_height = IntegratedConfig{}.eye_size;
    TimewarpParams tw_params;
    tw_params.fov_y_rad = app_cfg.fov_y_rad;

    CameraPlugin camera(pb, kTuning);
    ImuPlugin imu(pb, kTuning);
    TracedVioPlugin vio(pb, spans);
    IntegratorPlugin integrator(pb, kTuning);
    ApplicationPlugin application(pb, kTuning, spec.app, app_cfg);
    TimewarpPlugin timewarp(pb, kTuning, tw_params);
    AudioEncoderPlugin audio_enc(pb, kTuning);
    AudioPlaybackPlugin audio_play(pb, kTuning);

    PoolExecutorConfig pool_cfg;
    pool_cfg.workers = 4;
    pool_cfg.deterministic = spec.deterministic;
    pool_cfg.seed = seed;
    pool_cfg.platform = PlatformId::Desktop;
    PoolExecutor pool(pool_cfg);
    pool.setMetrics(metrics.get());
    pool.setPhonebook(&pb);
    pool.setTraceSink(sink);

    // Session registration order; the VIO plugin records its own spans.
    std::vector<std::unique_ptr<TracedPlugin>> traced;
    for (Plugin *p : std::initializer_list<Plugin *>{
             &camera, &imu, &vio, &integrator, &application, &timewarp,
             &audio_enc, &audio_play}) {
        Plugin *run = p;
        if (p != &vio) {
            traced.push_back(std::make_unique<TracedPlugin>(*p, spans));
            run = traced.back().get();
        }
        if (p == &timewarp)
            pool.addVsyncAlignedPlugin(run, kVsync);
        else
            pool.addPlugin(run);
    }

    std::map<std::string, std::atomic<std::uint64_t>> counts;
    std::vector<PublishListenerHandle> listeners;
    for (const char *topic : kTopics) {
        std::atomic<std::uint64_t> &n = counts[topic];
        listeners.push_back(sb->onPublish(topic, [&n](const std::string &) {
            n.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    DisplayClock clock;
    clock.attach(*sb);

    const std::uint64_t parallel0 = kernels.parallelLaunches();
    const std::int64_t run0 = nowNs();
    pool.run(spec.session);
    out.run_wall_s = 1e-9 * static_cast<double>(nowNs() - run0);
    out.parallel_launches = kernels.parallelLaunches() - parallel0;
    listeners.clear();

    for (const std::string &name : pool.taskNames())
        out.tasks.emplace(name, pool.stats(name));
    out.mtp = computeMtp(pool.stats("timewarp"), timewarp.imuAgesMs(),
                         kVsync);
    out.trajectory = *vio.vioTrajectory();
    out.slam = vio.samples();
    collect(clock, *data, out);

    sb->flushMetrics();
    for (const auto &[topic, n] : counts)
        out.publishes[topic] = n.load();
    for (const MetricRow &row : metrics->snapshotRows()) {
        const bool topic_row = row.name.rfind("sb.topic.", 0) == 0;
        if ((topic_row && endsWith(row.name, ".drops")) ||
            row.name == "sb.reader.dropped")
            out.drops += static_cast<std::uint64_t>(row.value);
        if (topic_row && endsWith(row.name, ".publishes"))
            out.registry_publishes += static_cast<std::uint64_t>(row.value);
        if (row.type == "histogram" && row.name.rfind("kernel.", 0) == 0)
            out.kernel_launches += row.count;
    }
    kernels.forgetMetrics(metrics.get());
    return out;
}

std::string
poseDigest(const std::vector<StampedPose> &trajectory, const Options &o,
           const std::string &tag)
{
    const std::string path =
        o.out_dir + "/" + o.workload + "-pose-" + tag + ".csv";
    return writePoseCsv(trajectory, path) ? fileDigest(path) : "";
}

/** Vsyncs in [0, duration): the frames a Session must display. */
std::size_t
vsyncsIn(Duration duration)
{
    return static_cast<std::size_t>((duration + kVsync - 1) / kVsync);
}

/**
 * Vsyncs without a frame shown on time: never produced, or displayed
 * after the vsync that follows the boundary the warp was released at.
 * (MtpSeries::missed_vsync compares against a target the deterministic
 * executor stamps at the release boundary itself, so it counts every
 * frame there; this definition is the same on both timelines.)
 */
std::size_t
displayMisses(const Outcome &o, Duration duration)
{
    std::size_t on_time = 0;
    for (const InvocationRecord &rec : o.tasks.at("timewarp").records) {
        if (rec.arrival >= duration)
            continue;
        const TimePoint release = (rec.arrival / kVsync) * kVsync;
        const TimePoint shown =
            ((rec.completion + kVsync - 1) / kVsync) * kVsync;
        on_time += shown <= release + kVsync;
    }
    return vsyncsIn(duration) - std::min(on_time, vsyncsIn(duration));
}

/**
 * The highest standard tail quantile the support rule allows for a
 * plugin of @p period over @p total run time: p99 needs 1000
 * invocations, so the 15 Hz and 48 Hz plugins report p90 instead.
 */
double
tailQuantile(Duration period, Duration total)
{
    return quantileSupported(static_cast<std::size_t>(total / period), 0.99)
               ? 0.99
               : 0.90;
}

/** Per-layer samples pooled over the traced Sessions of one run. */
struct Layers
{
    struct PluginLayer
    {
        std::vector<double> iterate_ms;
        double busy_s = 0.0; ///< Sum of the plugin's spans.
        double host_s = 0.0; ///< The executor's own TaskStats time.
        /** Per invocation: TaskStats host time minus the span, us. */
        std::vector<double> gap_us;
        std::size_t invocations = 0, skips = 0, spans = 0, records = 0;
        Duration period = 0;
    };
    std::map<std::string, PluginLayer> plugins;
    std::vector<double> wait_ms, sensor_wait_ms, synth_ms_per_frame;
    std::vector<double> tracker_ms, filter_ms, imu_us;
    SlamSamples slam;
    double run_wall_s = 0.0;
    double self_s = 0.0; ///< Self time of every span in the run phase.
    std::map<std::string, std::uint64_t> publishes;
    std::uint64_t drops = 0, registry_publishes = 0;
    std::uint64_t parallel_launches = 0, kernel_launches = 0;

    void add(const Spec &spec, const TracedOutcome &t,
             const SpanRecorder &recorder);
};

void
Layers::add(const Spec &spec, const TracedOutcome &t,
            const SpanRecorder &recorder)
{
    const std::vector<SpanRecord> spans = recorder.spans();
    const std::vector<std::int64_t> self = SpanRecorder::selfTimes(spans);

    // Executor timestamp -> host clock offset (live mode): the smallest
    // gap between a span's host start and the executor's `now` for it.
    std::int64_t epoch = 0;
    bool have_epoch = false;
    for (const SpanRecord &s : spans) {
        if (s.name.rfind("xr.", 0) != 0)
            continue;
        if (!have_epoch || s.start_ns - s.arg < epoch)
            epoch = s.start_ns - s.arg;
        have_epoch = true;
    }

    for (const char *name : kPlugins) {
        const TaskStats &stats = t.tasks.at(name);
        PluginLayer &p = plugins[name];
        p.period = stats.period;
        p.invocations += stats.invocations;
        p.skips += stats.skips;
        p.records += stats.records.size();
        for (const InvocationRecord &rec : stats.records)
            p.host_s += rec.host_seconds;
        // One plugin never overlaps itself, so its spans and its
        // executor records are in the same (invocation) order.
        std::size_t k = 0;
        const bool sensor = stats.name == "camera" || stats.name == "imu";
        const std::string span_name = std::string("xr.") + name;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].name != span_name)
                continue;
            const double ms =
                1e-6 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
            ++p.spans;
            p.iterate_ms.push_back(ms);
            p.busy_s += 1e-3 * ms;
            if (k < stats.records.size()) {
                const InvocationRecord &rec = stats.records[k++];
                p.gap_us.push_back(1e6 * rec.host_seconds - 1e3 * ms);
                const std::int64_t start = spec.deterministic
                                               ? rec.start
                                               : spans[i].start_ns - epoch;
                const double w =
                    1e-6 * static_cast<double>(start - rec.arrival);
                wait_ms.push_back(w);
                if (sensor)
                    sensor_wait_ms.push_back(w);
            }
        }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double ms =
            1e-6 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        if (spans[i].name == "slam.tracker")
            tracker_ms.push_back(ms);
        else if (spans[i].name == "slam.filter")
            filter_ms.push_back(ms);
        else if (spans[i].name == "slam.filter.imu")
            imu_us.push_back(1e3 * ms);
        if (spans[i].name != "sensors.synth")
            self_s += 1e-9 * static_cast<double>(self[i]);
    }
    slam.updates += t.slam.updates;
    slam.observed += t.slam.observed;
    slam.carried += t.slam.carried;
    slam.carried_base += t.slam.carried_base;
    synth_ms_per_frame.push_back(t.synth_ms_per_frame);
    run_wall_s += t.run_wall_s;
    for (const auto &[topic, n] : t.publishes)
        publishes[topic] += n;
    drops += t.drops;
    registry_publishes += t.registry_publishes;
    parallel_launches += t.parallel_launches;
    kernel_launches += t.kernel_launches;
}

void
reportLayers(const Spec &spec, const Layers &layers, std::size_t sessions,
             Report &report)
{
    const Duration total = spec.session * static_cast<Duration>(sessions);
    double plugin_busy_s = 0.0;
    std::size_t invocations = 0;
    bool spans_match = true;
    double worst_gap_us = 0.0;
    std::string busy_detail;
    for (const auto &[name, p] : layers.plugins) {
        const std::string prefix = "xr." + name;
        const double q = tailQuantile(p.period, total);
        report.metric(prefix + ".busy_s", p.busy_s, "s");
        report.metric(prefix + ".iterate_ms_p50",
                      supportedQuantile(p.iterate_ms, 0.50), "ms");
        report.metric(prefix + (q == 0.99 ? ".iterate_ms_p99"
                                          : ".iterate_ms_p90"),
                      supportedQuantile(p.iterate_ms, q), "ms");
        report.metric(prefix + ".invocations",
                      static_cast<double>(p.invocations), "count");
        report.metric(prefix + ".skips", static_cast<double>(p.skips),
                      "count");
        spans_match = spans_match && p.spans == p.records;
        plugin_busy_s += p.busy_s;
        invocations += p.invocations;
        // The executor times each invocation around the same iterate()
        // the decorator wraps; they differ by the executor's guard
        // (trace and kernel-metrics scopes), about 1.5 us a call, plus
        // any preemption inside the guard on the live executor, which
        // the median ignores.
        const double gap = std::abs(median(p.gap_us));
        if (busy_detail.empty() || gap > worst_gap_us) {
            worst_gap_us = gap;
            busy_detail = name + ": median gap " + fmt(gap, 3) +
                          " us; spans " + fmt(p.busy_s, 5) +
                          " s vs TaskStats " + fmt(p.host_s, 5) + " s";
        }
    }
    for (const auto &[name, p] : layers.plugins)
        report.note("share." + name,
                    fmt(100.0 * p.busy_s / plugin_busy_s, 3) + "%");

    report.check("spans_match_invocations", spans_match,
                 "one span per executor invocation record, every plugin");
    constexpr double kMaxGapUs = 25.0;
    report.check("decorator_busy_matches_taskstats",
                 worst_gap_us <= kMaxGapUs,
                 "median per-invocation gap <= " + fmt(kMaxGapUs) +
                     " us for every plugin; largest: " + busy_detail);
    if (spec.deterministic) {
        // Serial virtual-clock execution: the self time of every span
        // plus the executor's own work is the whole run phase.
        const double overhead_s = layers.run_wall_s - layers.self_s;
        // Handoff waits make this share swing with host load: 7-22%
        // measured. A plugin missing its span would add its whole share
        // (the application alone is ~75%).
        constexpr double kMaxOverheadShare = 0.5;
        report.metric("runtime.executor.overhead_us_per_invocation",
                      1e6 * overhead_s / static_cast<double>(invocations),
                      "us");
        report.check("spans_account_for_run_wall",
                     overhead_s >= 0 &&
                         overhead_s <= kMaxOverheadShare * layers.run_wall_s,
                     "span self time " + fmt(layers.self_s, 5) +
                         " s + executor " + fmt(overhead_s, 5) +
                         " s = run wall " + fmt(layers.run_wall_s, 5) +
                         " s (executor share <= " +
                         fmt(100 * kMaxOverheadShare) + "%)");
    }
    report.metric("runtime.executor.wait_ms_p50",
                  supportedQuantile(layers.wait_ms, 0.50), "ms");
    report.metric("runtime.executor.wait_ms_p99",
                  supportedQuantile(layers.wait_ms, 0.99), "ms");
    report.metric("sensors.lateness_ms_p50",
                  supportedQuantile(layers.sensor_wait_ms, 0.50), "ms");
    report.metric("sensors.lateness_ms_p99",
                  supportedQuantile(layers.sensor_wait_ms, 0.99), "ms");
    report.metric("sensors.synth_ms_per_frame",
                  median(layers.synth_ms_per_frame), "ms");

    std::uint64_t publishes = 0;
    for (const auto &[topic, n] : layers.publishes) {
        report.metric("runtime.switchboard.publishes." + topic,
                      static_cast<double>(n), "count");
        publishes += n;
    }
    report.metric("runtime.switchboard.publishes",
                  static_cast<double>(publishes), "count");
    report.metric("runtime.switchboard.drops",
                  static_cast<double>(layers.drops), "count");
    report.check("listener_publishes_match_registry",
                 publishes == layers.registry_publishes,
                 std::to_string(publishes) + " listener vs " +
                     std::to_string(layers.registry_publishes) +
                     " sb.topic.*.publishes");
    const double slam_q = tailQuantile(periodFromHz(kTuning.camera_hz), total);
    const std::string slam_tail = slam_q == 0.99 ? "_p99" : "_p90";
    report.metric("slam.tracker.frame_ms_p50",
                  supportedQuantile(layers.tracker_ms, 0.50), "ms");
    report.metric("slam.tracker.frame_ms" + slam_tail,
                  supportedQuantile(layers.tracker_ms, slam_q), "ms");
    report.metric("slam.filter.frame_ms_p50",
                  supportedQuantile(layers.filter_ms, 0.50), "ms");
    report.metric("slam.filter.frame_ms" + slam_tail,
                  supportedQuantile(layers.filter_ms, slam_q), "ms");
    report.metric("slam.filter.imu_us_p50",
                  supportedQuantile(layers.imu_us, 0.50), "us");
    const SlamSamples &slam = layers.slam;
    report.metric("slam.tracker.tracks_per_frame",
                  static_cast<double>(slam.observed) /
                      static_cast<double>(std::max<std::size_t>(
                          1, layers.tracker_ms.size())),
                  "count");
    report.metric("slam.tracker.track_survival",
                  slam.carried_base ? static_cast<double>(slam.carried) /
                                          static_cast<double>(slam.carried_base)
                                    : 0.0,
                  "ratio");
    report.metric("slam.filter.updates", static_cast<double>(slam.updates),
                  "count");
    report.metric("runtime.parallel.launches",
                  static_cast<double>(layers.parallel_launches), "count");
    report.metric("runtime.parallel.inline_launches",
                  static_cast<double>(layers.kernel_launches -
                                      layers.parallel_launches),
                  "count");
}

/** End-to-end metrics and output checks over the untraced Sessions. */
void
reportSessions(const Spec &spec, const std::vector<Outcome> &runs,
               const std::vector<double> &setup_s, Report &report)
{
    std::vector<double> frame_ms, mtp_ms;
    double frames = 0.0, seconds = 0.0, ate_sum = 0.0, worst_ate = 0.0;
    bool ate_ok = true;
    std::size_t vsyncs = 0, misses = 0, attempts = 0, skips = 0;
    std::size_t exceptions = 0;
    bool vio_every_frame = true, display_exact = true;
    std::string vio_detail, display_detail;
    for (const Outcome &o : runs) {
        frame_ms.insert(frame_ms.end(), o.frame_cpu_ms.begin(),
                        o.frame_cpu_ms.end());
        mtp_ms.insert(mtp_ms.end(), o.mtp.latency_ms.samples().begin(),
                      o.mtp.latency_ms.samples().end());
        const std::vector<double> &gaps =
            spec.deterministic ? o.frame_cpu_ms : o.frame_gap_ms;
        frames += static_cast<double>(gaps.size());
        for (double g : gaps)
            seconds += 1e-3 * g;
        ate_sum += o.ate_cm;
        worst_ate = std::max(worst_ate, o.ate_cm);
        ate_ok = ate_ok && o.ate_cm < kAteCeilingCm; // false for NaN
        vsyncs += vsyncsIn(spec.session);
        misses += displayMisses(o, spec.session);
        for (const auto &[name, stats] : o.tasks) {
            attempts += stats.attempts + stats.skips;
            skips += stats.skips;
            exceptions += stats.exceptions;
        }
        attempts += o.later_attempts;
        skips += o.later_skips;
        exceptions += o.later_exceptions;

        // Every camera frame gets a pose; a live run may stop between
        // the last camera publish and the VIO invocation after it.
        const std::size_t camera = o.tasks.at("camera").invocations;
        const std::size_t slack = spec.deterministic ? 0 : 1;
        const bool vio_ok = o.trajectory.size() + slack >= camera &&
                            o.trajectory.size() <= camera;
        if (!vio_ok || vio_detail.empty())
            vio_detail = std::to_string(o.trajectory.size()) +
                         " poses for " + std::to_string(camera) +
                         " camera frames";
        vio_every_frame = vio_every_frame && vio_ok;

        std::size_t warps = 0;
        for (const InvocationRecord &rec : o.tasks.at("timewarp").records)
            warps += rec.arrival < spec.session;
        const bool exact =
            warps == vsyncsIn(spec.session) && o.displayed >= warps;
        if (!exact || display_detail.empty())
            display_detail = std::to_string(warps) + " warps, " +
                             std::to_string(o.displayed) +
                             " display frames for " +
                             std::to_string(vsyncsIn(spec.session)) +
                             " vsyncs of " + fmt(toSeconds(spec.session)) +
                             " virtual s";
        display_exact = display_exact && exact;
    }
    report.attempted = attempts;
    report.failed = exceptions;

    report.metric("setup_s", median(setup_s), "s");
    // The closed loop runs one invocation at a time, so its cost is the
    // process CPU time per displayed frame, the least over the passes:
    // host time without the scheduler waits and stalls that a shared host
    // adds at random. The open loop runs on the wall clock, at the vsync's
    // rate.
    report.metric("frames_per_s", frames / seconds, "frames/s");
    // Per-frame latency: on the closed loop, host CPU time to produce
    // each displayed frame; on the open loop, the Sessions' MTP series.
    const std::vector<double> &latency =
        spec.deterministic ? frame_ms : mtp_ms;
    report.metric("frame_ms_p50", supportedQuantile(latency, 0.50), "ms");
    report.metric("frame_ms_p99", supportedQuantile(latency, 0.99), "ms");
    report.metric("ate_cm", ate_sum / static_cast<double>(runs.size()),
                  "cm");
    report.metric("display_miss_pct",
                  100.0 * static_cast<double>(misses) /
                      static_cast<double>(vsyncs),
                  "%");
    report.note("sessions", std::to_string(setup_s.size()) + " x " +
                                fmt(toSeconds(spec.session)) + " s on " +
                                std::to_string(runs.size()) + " datasets");
    report.note("frame_ms.samples", std::to_string(latency.size()));
    report.note("display_misses", std::to_string(misses) + " of " +
                                      std::to_string(vsyncs) + " vsyncs");
    report.note("plugin_skips", std::to_string(skips) + " of " +
                                    std::to_string(attempts) +
                                    " invocation attempts");

    report.check("ate_under_ceiling", ate_ok,
                 "worst Session " + fmt(worst_ate, 4) + " cm < " +
                     fmt(kAteCeilingCm) + " cm");
    report.check("no_plugin_exceptions", exceptions == 0,
                 std::to_string(exceptions) + " of " +
                     std::to_string(attempts) + " invocation attempts");
    report.check("vio_processes_every_frame", vio_every_frame, vio_detail);
    if (spec.deterministic) {
        report.check("display_120_per_virtual_s", display_exact,
                     display_detail);
        report.check("no_plugin_skips", skips == 0,
                     std::to_string(skips) + " skips");
    }
}

/** Mean process CPU ms per displayed frame. */
double
cpuPerFrame(const Outcome &o)
{
    double sum = 0.0;
    for (double ms : o.frame_cpu_ms)
        sum += ms;
    return sum / static_cast<double>(
                     std::max<std::size_t>(1, o.frame_cpu_ms.size()));
}

/** Untraced run: a warm-up Session, then every pass over the datasets.
 *  Passes after the first must give the same poses and frame count; each
 *  frame keeps the least CPU time any pass spent on it. */
void
runUntraced(const Spec &spec, const Options &options, Report &report)
{
    const std::size_t datasets = datasetCount(spec, options.seconds);
    // Not measured: the first Session of a process pays for cold caches
    // and page faults. Its dataset is one the run does not otherwise use.
    Spec warm_up = spec;
    warm_up.session = kWarmUp;
    runSession(warm_up, subSeed(options.seed, datasets));

    std::vector<Outcome> runs;
    std::vector<std::string> digests;
    std::vector<double> setup_s;
    bool repeats = true;
    std::string repeat_detail;
    for (std::size_t pass = 0; pass < passCount(spec); ++pass) {
        for (std::size_t i = 0; i < datasets; ++i) {
            Outcome o = runSession(spec, subSeed(options.seed, i));
            setup_s.push_back(o.setup_s);
            const std::string tag =
                std::to_string(i) +
                (pass ? "-pass" + std::to_string(pass) : std::string());
            const std::string d = poseDigest(o.trajectory, options, tag);
            if (pass == 0) {
                runs.push_back(std::move(o));
                digests.push_back(d);
                continue;
            }
            for (const auto &[name, stats] : o.tasks) {
                runs[i].later_attempts += stats.attempts + stats.skips;
                runs[i].later_skips += stats.skips;
                runs[i].later_exceptions += stats.exceptions;
            }
            std::vector<double> &least = runs[i].frame_cpu_ms;
            const bool same = !d.empty() && d == digests[i] &&
                              o.frame_cpu_ms.size() == least.size();
            if (!same || repeat_detail.empty())
                repeat_detail = "dataset " + std::to_string(i) + " pass " +
                                std::to_string(pass) + ": " + d + ", " +
                                std::to_string(o.frame_cpu_ms.size()) +
                                " frames vs " + digests[i] + ", " +
                                std::to_string(least.size());
            repeats = repeats && same;
            for (std::size_t f = 0; same && f < least.size(); ++f)
                least[f] = std::min(least[f], o.frame_cpu_ms[f]);
        }
    }
    reportSessions(spec, runs, setup_s, report);
    if (spec.deterministic)
        report.check("pose_digest_repeats", repeats, repeat_detail);
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

/** Traced run: untraced and traced Sessions alternate on the same
 *  datasets, so host drift hits both alike. */
void
runTracedWorkload(const Spec &spec, const Options &options, Report &report)
{
    const std::size_t sessions = tracedSessionCount(spec);
    std::vector<Outcome> runs;
    std::vector<double> setup_s;
    Layers layers;
    std::vector<double> overhead;
    bool digests_match = true;
    std::string digest_detail;
    for (std::size_t i = 0; i < sessions; ++i) {
        const unsigned seed = subSeed(options.seed, i);
        runs.push_back(runSession(spec, seed));
        setup_s.push_back(runs.back().setup_s);
        const std::string untraced =
            poseDigest(runs.back().trajectory, options, std::to_string(i));
        SpanRecorder spans;
        const TracedOutcome traced = runTraced(spec, seed, spans);
        spans.dump(options.out_dir + "/" + options.workload + "-spans-" +
                   std::to_string(i) + ".csv");
        layers.add(spec, traced, spans);
        const std::string d = poseDigest(traced.trajectory, options,
                                         "traced-" + std::to_string(i));
        if (d != untraced || digest_detail.empty())
            digest_detail = "Session " + std::to_string(i) + ": traced " +
                            d + " vs untraced " + untraced;
        digests_match = digests_match && d == untraced;
        overhead.push_back(cpuPerFrame(traced) / cpuPerFrame(runs.back()) -
                           1.0);
    }
    reportSessions(spec, runs, setup_s, report);
    reportLayers(spec, layers, sessions, report);
    if (spec.deterministic)
        report.check("traced_pose_digest_matches", digests_match,
                     digest_detail);
    report.metric("bench.trace_overhead_pct", 100.0 * median(overhead), "%");
}

void
runSessionWorkload(const Spec &spec, const Options &options, Report &report)
{
    if (options.trace)
        runTracedWorkload(spec, options, report);
    else
        runUntraced(spec, options, report);
}

} // namespace

void
runSponzaReplay(const Options &options, Report &report)
{
    runSessionWorkload(Spec{AppId::Sponza, true, 2500 * kMillisecond},
                       options, report);
}

void
runArLive(const Options &options, Report &report)
{
    runSessionWorkload(Spec{AppId::ArDemo, false, 5 * kSecond}, options,
                       report);
}

} // namespace perfbench
