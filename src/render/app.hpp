/**
 * @file
 * XR application driver: renders stereo frames of a Scene from a
 * head pose — the "application" component of the integrated system
 * (scene simulation + physics + rendering; paper §II).
 */

#pragma once

#include "foundation/pose.hpp"
#include "foundation/profile.hpp"
#include "render/scenes.hpp"

namespace illixr {

/** Stereo frame: what the application submits to the runtime. */
struct StereoFrame
{
    RgbImage left;
    RgbImage right;
    Pose render_pose;     ///< Head pose the frame was rendered with.
    TimePoint render_time = 0;
    double app_time_s = 0.0; ///< Scene-simulation time of the frame.
};

/** Application configuration. */
struct AppConfig
{
    int eye_width = 128;     ///< Per-eye resolution (scaled 2K; see
    int eye_height = 128;    ///< DESIGN.md on scaling).
    double fov_y_rad = 1.5;  ///< ~86 degrees.
    double ipd_m = 0.064;    ///< Inter-pupillary distance.
    double near_z = 0.1;
    double far_z = 60.0;
};

/**
 * Renders an application scene for a tracked head.
 */
class XrApplication
{
  public:
    XrApplication(AppId app, const AppConfig &config = AppConfig());

    /**
     * Simulate and render one stereo frame at @p head_pose. The
     * simulation state advances to @p t_seconds.
     */
    StereoFrame renderFrame(const Pose &head_pose, double t_seconds);

    AppId appId() const { return scene_.app(); }
    const Scene &scene() const { return scene_; }
    const AppConfig &config() const { return config_; }

    /**
     * Change the per-eye render resolution at run time (the
     * approximate-computing knob of paper §V-D/§V-E: trade image
     * fidelity for frame rate under QoE feedback). Clamped to
     * [16, 4096].
     */
    void setEyeResolution(int pixels);

    /** Aggregate rasterizer statistics across all frames. */
    const RasterStats &stats() const { return stats_; }

    /** Task timings: simulation vs rendering. */
    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    /** Phase-1 lighting of one scene object; LitMesh::model is the
     *  cache key. */
    struct LitObject
    {
        bool ready = false;
        LitMesh lit;
    };

    /** Relight every object whose transform bits changed. */
    void updateLighting();

    /** Render one eye into @p target. */
    void renderEye(RgbImage &target, const Pose &eye_pose);

    Scene scene_;
    AppConfig config_;
    RasterStats stats_;
    TaskProfile profile_;
    double physicsState_ = 0.0; ///< Accumulator for the sim workload.
    std::vector<LitObject> lit_; ///< One per scene object.
    Rasterizer raster_;          ///< Reused by every eye of every frame.
};

/** View matrix of an eye given its world pose (graphics convention:
 *  body/eye looks along its local -Z). */
Mat4 viewMatrixFromPose(const Pose &eye_pose);

/** World pose of the left/right eye given the head pose and IPD. */
Pose eyePose(const Pose &head_pose, double ipd_m, bool left);

} // namespace illixr
