/**
 * @file
 * Asynchronous reprojection (TimeWarp) with mesh-based radial lens
 * distortion and chromatic aberration correction — the visual
 * pipeline of the paper (Table II: "VP-matrix reprojection with
 * pose", "Mesh-based radial distortion" [39]).
 *
 * Rotational reprojection: the application's rendered frame (drawn at
 * render_pose) is re-sampled from the perspective of the fresh pose
 * available just before vsync, hiding the application's render
 * latency. The warp, the barrel pre-distortion for the HMD optics,
 * and per-channel chromatic correction are evaluated on a coarse mesh
 * and interpolated per pixel, exactly as GPU implementations do.
 * Translational reprojection (the paper's follow-up feature) is also
 * provided, using the rendered depth as a proxy geometry.
 */

#pragma once

#include "foundation/pose.hpp"
#include "foundation/profile.hpp"
#include "image/image.hpp"

#include <span>

namespace illixr {

/** Reprojection configuration. */
struct TimewarpParams
{
    int mesh_cols = 16;     ///< Distortion-mesh resolution.
    int mesh_rows = 16;
    double fov_y_rad = 1.5; ///< Must match the application's FoV.
    double k1 = 0.18;       ///< Radial distortion r^2 coefficient.
    double k2 = 0.045;      ///< Radial distortion r^4 coefficient.
    /** Per-channel chromatic scale (R slightly outward, B inward). */
    double chroma_scale[3] = {1.015, 1.0, 0.985};
    bool chromatic_correction = true;
    bool lens_distortion = true;
};

/**
 * The reprojection component.
 */
class Timewarp
{
  public:
    explicit Timewarp(const TimewarpParams &params = TimewarpParams());

    /**
     * Rotational reprojection of one eye image.
     *
     * @param rendered    The application's frame for this eye.
     * @param render_pose Head pose the frame was rendered at.
     * @param fresh_pose  Latest head pose (from the IMU integrator).
     * @return The corrected, reprojected display image.
     */
    RgbImage reproject(const RgbImage &rendered, const Pose &render_pose,
                       const Pose &fresh_pose);

    /**
     * Rotational reprojection of both eyes in one pass. The eyes share
     * the pose pair and the size, so the warp mesh, every per-pixel
     * source UV and bilinear tap are computed once and sample both
     * images; each output is bit-identical to reproject() of that
     * eye. The Table VII profile records one fbo / state_update /
     * reprojection row per call.
     *
     * @throws std::invalid_argument if the eyes differ in size, or if
     *         an output is an input or the other output.
     */
    void reprojectStereo(const RgbImage &left, const RgbImage &right,
                         const Pose &render_pose, const Pose &fresh_pose,
                         RgbImage &out_left, RgbImage &out_right);

    /**
     * Translational (positional) reprojection using the rendered
     * depth buffer as proxy geometry (post-paper extension).
     *
     * @param depth_ndc   NDC depth buffer from the rasterizer.
     * @param near_z/far_z Projection depths used by the application.
     */
    RgbImage reprojectPositional(const RgbImage &rendered,
                                 const ImageF &depth_ndc,
                                 const Pose &render_pose,
                                 const Pose &fresh_pose, double near_z,
                                 double far_z);

    const TimewarpParams &params() const { return params_; }

    /** Table VII task timings (fbo / state update / reprojection). */
    const TaskProfile &profile() const { return profile_; }
    TaskProfile &profile() { return profile_; }

  private:
    /**
     * Compute per-channel source UVs on the warp mesh for the given
     * rotation delta; the per-pixel pass interpolates these.
     */
    void buildMesh(const Mat3 &delta_rotation, int width, int height);

    /** The warp kernel of reproject() and reprojectStereo(): warps
     *  each of @p src (all one size) into the matching @p dst. */
    void warp(std::span<const RgbImage *const> src,
              std::span<RgbImage *const> dst, const Pose &render_pose,
              const Pose &fresh_pose);

    TimewarpParams params_;
    TaskProfile profile_;

    // Mesh buffers: (mesh_rows+1) x (mesh_cols+1) UVs per channel.
    std::vector<Vec2> meshUv_[3];

    // Per warp row block: one mesh cell row's x-interpolated top and
    // bottom UVs (3 channels x 2 x width) and per-column validity.
    std::vector<Vec2> cellRowUv_;
    std::vector<char> cellRowOk_;
};

/** Barrel distortion of normalized coordinates (r in [0, ~1.5]). */
Vec2 distortRadial(const Vec2 &ndc, double k1, double k2, double scale);

} // namespace illixr
