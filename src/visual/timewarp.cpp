#include "visual/timewarp.hpp"

#include "foundation/check.hpp"
#include "runtime/parallel.hpp"

#include <cmath>
#include <vector>

namespace illixr {

namespace {

/** Sentinel marking an off-frame / behind-camera mesh node. */
constexpr double kInvalidUv = -1e9;

/** Most images one warp pass samples (both eyes). */
constexpr std::size_t kMaxEyes = 2;

/** Output rows per warp tile. */
constexpr std::size_t kWarpRows = 8;

} // namespace

Vec2
distortRadial(const Vec2 &ndc, double k1, double k2, double scale)
{
    const double r2 = ndc.squaredNorm();
    const double factor = (1.0 + k1 * r2 + k2 * r2 * r2) * scale;
    return ndc * factor;
}

Timewarp::Timewarp(const TimewarpParams &params) : params_(params)
{
}

void
Timewarp::buildMesh(const Mat3 &delta_rotation, int width, int height)
{
    const int cols = params_.mesh_cols + 1;
    const int rows = params_.mesh_rows + 1;
    const double tan_half = std::tan(params_.fov_y_rad / 2.0);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);

    for (int c = 0; c < 3; ++c)
        meshUv_[c].assign(static_cast<std::size_t>(cols) * rows,
                          Vec2(kInvalidUv, kInvalidUv));

    const int channels = params_.chromatic_correction ? 3 : 1;
    for (int ch = 0; ch < channels; ++ch) {
        const double scale =
            params_.chromatic_correction ? params_.chroma_scale[ch] : 1.0;
        for (int r = 0; r < rows; ++r) {
            for (int col = 0; col < cols; ++col) {
                // Node position in output NDC.
                const double nx =
                    2.0 * static_cast<double>(col) / params_.mesh_cols -
                    1.0;
                const double ny =
                    1.0 -
                    2.0 * static_cast<double>(r) / params_.mesh_rows;
                Vec2 d(nx, ny);
                if (params_.lens_distortion)
                    d = distortRadial(d, params_.k1, params_.k2, scale);
                else if (params_.chromatic_correction)
                    d = d * scale;

                // View ray in the fresh eye frame (looking down -Z).
                const Vec3 ray_fresh(d.x * tan_half * aspect,
                                     d.y * tan_half, -1.0);
                // Rotate into the render eye frame.
                const Vec3 ray_render = delta_rotation * ray_fresh;
                if (ray_render.z > -1e-6)
                    continue; // Behind the render camera.
                const double sx =
                    ray_render.x / (-ray_render.z) / (tan_half * aspect);
                const double sy =
                    ray_render.y / (-ray_render.z) / tan_half;
                // Source pixel coordinates.
                const double u = (sx + 1.0) / 2.0 * width - 0.5;
                const double v = (1.0 - sy) / 2.0 * height - 0.5;
                meshUv_[ch][static_cast<std::size_t>(r) * cols + col] =
                    Vec2(u, v);
            }
        }
    }
    if (!params_.chromatic_correction) {
        meshUv_[1] = meshUv_[0];
        meshUv_[2] = meshUv_[0];
    }
}

RgbImage
Timewarp::reproject(const RgbImage &rendered, const Pose &render_pose,
                    const Pose &fresh_pose)
{
    RgbImage out;
    const RgbImage *src[] = {&rendered};
    RgbImage *dst[] = {&out};
    warp(src, dst, render_pose, fresh_pose);
    return out;
}

void
Timewarp::reprojectStereo(const RgbImage &left, const RgbImage &right,
                          const Pose &render_pose, const Pose &fresh_pose,
                          RgbImage &out_left, RgbImage &out_right)
{
    ILLIXR_CHECK(left.width() == right.width() &&
                     left.height() == right.height(),
                 "Timewarp::reprojectStereo: eye sizes differ");
    // The outputs are cleared before the inputs are read.
    ILLIXR_CHECK(&out_left != &out_right && &out_left != &left &&
                     &out_left != &right && &out_right != &left &&
                     &out_right != &right,
                 "Timewarp::reprojectStereo: an output aliases an image");
    const RgbImage *src[] = {&left, &right};
    RgbImage *dst[] = {&out_left, &out_right};
    warp(src, dst, render_pose, fresh_pose);
}

void
Timewarp::warp(std::span<const RgbImage *const> src,
               std::span<RgbImage *const> dst, const Pose &render_pose,
               const Pose &fresh_pose)
{
    const int w = src[0]->width();
    const int h = src[0]->height();
    const std::size_t eyes = src.size();

    // --- FBO setup: allocate/clear the output targets. ---
    {
        ScopedTask timer(profile_, "fbo");
        for (RgbImage *out : dst)
            *out = RgbImage(w, h, Vec3(0, 0, 0));
    }

    // --- State update: recompute the warp mesh for this pose pair
    //     (the GPU implementation's uniform/mesh upload). ---
    {
        ScopedTask timer(profile_, "state_update");
        // delta = R_render^T * R_fresh maps fresh-eye rays to
        // render-eye rays (rotational component only).
        const Mat3 delta = render_pose.orientation.toMatrix().transpose() *
                           fresh_pose.orientation.toMatrix();
        buildMesh(delta, w, h);
    }

    // --- Reprojection: per-pixel interpolation and sampling. Each
    //     pixel's source UV and bilinear tap per channel depend only
    //     on the mesh, so one evaluation serves every eye. ---
    {
        ScopedTask timer(profile_, "reprojection");
        const int cols = params_.mesh_cols + 1;
        const double cell_w =
            static_cast<double>(w) / params_.mesh_cols;
        const double cell_h =
            static_cast<double>(h) / params_.mesh_rows;
        // Per output column: its mesh cell and the weight within it.
        std::vector<std::size_t> col_cell(static_cast<std::size_t>(w));
        std::vector<double> col_fx(static_cast<std::size_t>(w));
        for (int x = 0; x < w; ++x) {
            const double gx = (x + 0.5) / cell_w;
            const int c0 = std::min(static_cast<int>(gx),
                                    params_.mesh_cols - 1);
            col_cell[x] = static_cast<std::size_t>(c0);
            col_fx[x] = gx - c0;
        }

        // Scanline blocks: output rows are independent (reads only
        // touch the mesh and the rendered frames). Within a block, each
        // mesh cell row's x-interpolated top and bottom UVs per channel
        // are built once, and each of its output rows only blends them
        // (the same operations as the per-pixel four-node blend). Tiles
        // are a pure function of (h, kWarpRows), so each owns one slice
        // of the buffers.
        const std::size_t n = static_cast<std::size_t>(w);
        const std::size_t blocks =
            (static_cast<std::size_t>(h) + kWarpRows - 1) / kWarpRows;
        cellRowUv_.resize(blocks * 6 * n);
        cellRowOk_.resize(blocks * n);
        parallelFor("timewarp", 0, static_cast<std::size_t>(h), kWarpRows,
                    [&](std::size_t yb, std::size_t ye) {
        // This block's slice of the cell-row buffers.
        const std::size_t block = yb / kWarpRows;
        Vec2 *top[3], *bot[3];
        for (int ch = 0; ch < 3; ++ch) {
            top[ch] = &cellRowUv_[(block * 6 + 2 * ch) * n];
            bot[ch] = top[ch] + n;
        }
        // Columns whose four cell nodes are valid in every channel.
        char *cell_ok = &cellRowOk_[block * n];
        int built_row = -1;
        for (int y = static_cast<int>(yb); y < static_cast<int>(ye);
             ++y) {
            const double gy = (y + 0.5) / cell_h;
            const int r0 = std::min(static_cast<int>(gy),
                                    params_.mesh_rows - 1);
            const double fy = gy - r0;
            if (r0 != built_row) {
                built_row = r0;
                const std::size_t row0 =
                    static_cast<std::size_t>(r0) * cols;
                const std::size_t row1 = row0 + cols;
                for (std::size_t x = 0; x < n; ++x) {
                    const std::size_t c0 = col_cell[x];
                    const double fx = col_fx[x];
                    bool ok = true;
                    for (int ch = 0; ch < 3; ++ch) {
                        const std::vector<Vec2> &mesh = meshUv_[ch];
                        const Vec2 &uv00 = mesh[row0 + c0];
                        const Vec2 &uv01 = mesh[row0 + c0 + 1];
                        const Vec2 &uv10 = mesh[row1 + c0];
                        const Vec2 &uv11 = mesh[row1 + c0 + 1];
                        ok = ok && !(uv00.x <= kInvalidUv / 2 ||
                                     uv01.x <= kInvalidUv / 2 ||
                                     uv10.x <= kInvalidUv / 2 ||
                                     uv11.x <= kInvalidUv / 2);
                        top[ch][x] = uv00 * (1.0 - fx) + uv01 * fx;
                        bot[ch][x] = uv10 * (1.0 - fx) + uv11 * fx;
                    }
                    cell_ok[x] = ok;
                }
            }
            for (int x = 0; x < w; ++x) {
                if (!cell_ok[x])
                    continue;
                float rgb[kMaxEyes][3];
                bool ok = true;
                for (int ch = 0; ch < 3; ++ch) {
                    const Vec2 uv =
                        top[ch][x] * (1.0 - fy) + bot[ch][x] * fy;
                    if (uv.x < -0.5 || uv.y < -0.5 || uv.x > w - 0.5 ||
                        uv.y > h - 0.5) {
                        ok = false;
                        break;
                    }
                    const BilinearTap tap =
                        src[0]->r.bilinearTap(uv.x, uv.y);
                    for (std::size_t e = 0; e < eyes; ++e) {
                        const RgbImage &in = *src[e];
                        const ImageF &plane =
                            ch == 0 ? in.r : (ch == 1 ? in.g : in.b);
                        rgb[e][ch] = plane.sample(tap);
                    }
                }
                if (!ok)
                    continue;
                for (std::size_t e = 0; e < eyes; ++e) {
                    RgbImage &out = *dst[e];
                    out.r.at(x, y) = rgb[e][0];
                    out.g.at(x, y) = rgb[e][1];
                    out.b.at(x, y) = rgb[e][2];
                }
            }
        }
                    });
    }
}

RgbImage
Timewarp::reprojectPositional(const RgbImage &rendered,
                              const ImageF &depth_ndc,
                              const Pose &render_pose,
                              const Pose &fresh_pose, double near_z,
                              double far_z)
{
    const int w = rendered.width();
    const int h = rendered.height();
    RgbImage out(w, h, Vec3(0, 0, 0));
    ScopedTask timer(profile_, "reprojection");

    const double tan_half = std::tan(params_.fov_y_rad / 2.0);
    const double aspect = static_cast<double>(w) / h;
    const Pose fresh_inv = fresh_pose.inverse();

    auto view_depth = [&](double z_ndc) {
        // Invert the perspective depth mapping; returns +depth along
        // the viewing direction.
        return 2.0 * far_z * near_z /
               (z_ndc * (near_z - far_z) + far_z + near_z);
    };
    auto unproject_render = [&](const Vec2 &uv) {
        const float zn = depth_ndc.sampleBilinear(uv.x, uv.y);
        const double d = view_depth(std::min(1.0, (double)zn));
        const double nx = (uv.x + 0.5) / w * 2.0 - 1.0;
        const double ny = 1.0 - (uv.y + 0.5) / h * 2.0;
        const Vec3 p_eye(nx * tan_half * aspect * d, ny * tan_half * d,
                         -d);
        return render_pose.transform(p_eye);
    };
    auto project_fresh = [&](const Vec3 &world) {
        const Vec3 p = fresh_inv.transform(world);
        if (p.z > -1e-6)
            return Vec2(-1e9, -1e9);
        const double nx = p.x / (-p.z) / (tan_half * aspect);
        const double ny = p.y / (-p.z) / tan_half;
        return Vec2((nx + 1.0) / 2.0 * w - 0.5,
                    (1.0 - ny) / 2.0 * h - 0.5);
    };

    parallelFor("timewarp_pos", 0, static_cast<std::size_t>(h), 8,
                [&](std::size_t yb, std::size_t ye) {
    for (int y = static_cast<int>(yb); y < static_cast<int>(ye); ++y) {
        for (int x = 0; x < w; ++x) {
            // Fixed-point inverse warp, seeded at the output pixel.
            Vec2 uv(static_cast<double>(x), static_cast<double>(y));
            bool ok = false;
            for (int iter = 0; iter < 3; ++iter) {
                if (uv.x < 0 || uv.y < 0 || uv.x > w - 1 ||
                    uv.y > h - 1)
                    break;
                const Vec3 world = unproject_render(uv);
                const Vec2 reproj = project_fresh(world);
                if (reproj.x < -1e8)
                    break;
                const Vec2 err = Vec2(x, y) - reproj;
                uv += err;
                if (err.squaredNorm() < 0.05) {
                    ok = true;
                    break;
                }
            }
            if (ok && uv.x >= 0 && uv.y >= 0 && uv.x <= w - 1 &&
                uv.y <= h - 1) {
                out.setPixel(x, y, rendered.sampleBilinear(uv.x, uv.y));
            }
        }
    }
                });
    return out;
}

} // namespace illixr
