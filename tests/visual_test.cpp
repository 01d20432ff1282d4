/**
 * @file
 * Unit tests for the visual pipeline: timewarp reprojection, lens
 * distortion, chromatic aberration, and the GS hologram generator.
 */

#include "image/ssim.hpp"
#include "render/app.hpp"
#include "sensors/trajectory.hpp"
#include "visual/hologram.hpp"
#include "visual/timewarp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace illixr {
namespace {

/** Render one eye of a scene at a given head pose. */
RgbImage
renderAt(XrApplication &app, const Pose &head, double t)
{
    return app.renderFrame(head, t).left;
}

TEST(DistortionTest, RadialGrowsWithRadius)
{
    const Vec2 center = distortRadial(Vec2(0.0, 0.0), 0.2, 0.05, 1.0);
    EXPECT_NEAR(center.norm(), 0.0, 1e-12);
    const Vec2 edge = distortRadial(Vec2(0.8, 0.0), 0.2, 0.05, 1.0);
    EXPECT_GT(edge.x, 0.8); // Barrel: pushed outward.
    const Vec2 further = distortRadial(Vec2(1.0, 0.0), 0.2, 0.05, 1.0);
    EXPECT_GT(further.x / 1.0, edge.x / 0.8); // Increasing factor.
}

TEST(TimewarpTest, IdentityWarpWithoutDistortionIsNearPassThrough)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::Platformer, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.2, 4.0));
    const RgbImage rendered = renderAt(app, head, 0.0);

    TimewarpParams params;
    params.fov_y_rad = cfg.fov_y_rad;
    params.lens_distortion = false;
    params.chromatic_correction = false;
    Timewarp warp(params);
    const RgbImage out = warp.reproject(rendered, head, head);
    EXPECT_GT(ssim(out, rendered), 0.98);
}

TEST(TimewarpTest, RotationCompensatesHeadMotion)
{
    // Render at pose A; the head rotates to pose B before display.
    // Reprojecting the A-frame with B's pose should approximate a
    // native render at B far better than showing the stale frame.
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    const Pose pose_a(Quat::identity(), Vec3(0, 1.2, 4.0));
    const Pose pose_b(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.06),
                      Vec3(0, 1.2, 4.0));

    XrApplication app(AppId::Platformer, cfg);
    const RgbImage frame_a = renderAt(app, pose_a, 0.0);
    XrApplication app2(AppId::Platformer, cfg);
    const RgbImage frame_b = renderAt(app2, pose_b, 0.0);

    TimewarpParams params;
    params.fov_y_rad = cfg.fov_y_rad;
    params.lens_distortion = false;
    params.chromatic_correction = false;
    Timewarp warp(params);
    const RgbImage warped = warp.reproject(frame_a, pose_a, pose_b);

    // Compare the central region: the warp legitimately leaves a
    // black stripe where the stale frame has no data (real systems
    // render with an FoV margin for exactly this reason).
    auto crop = [](const RgbImage &img) {
        RgbImage out(40, 40);
        for (int y = 0; y < 40; ++y)
            for (int x = 0; x < 40; ++x)
                out.setPixel(x, y, img.pixel(x + 12, y + 12));
        return out;
    };
    const double ssim_warped = ssim(crop(warped), crop(frame_b));
    const double ssim_stale = ssim(crop(frame_a), crop(frame_b));
    EXPECT_GT(ssim_warped, ssim_stale + 0.05)
        << "warped=" << ssim_warped << " stale=" << ssim_stale;
}

TEST(TimewarpTest, LensDistortionMovesEdgePixels)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::Platformer, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.2, 4.0));
    const RgbImage rendered = renderAt(app, head, 0.0);

    TimewarpParams with;
    with.fov_y_rad = cfg.fov_y_rad;
    TimewarpParams without = with;
    without.lens_distortion = false;
    without.chromatic_correction = false;

    Timewarp warp_with(with), warp_without(without);
    const RgbImage a = warp_with.reproject(rendered, head, head);
    const RgbImage b = warp_without.reproject(rendered, head, head);
    // Distortion changes the image.
    EXPECT_LT(ssim(a, b), 0.98);
}

TEST(TimewarpTest, ChromaticCorrectionSeparatesChannels)
{
    // With chromatic aberration correction, R and B sample different
    // source locations: a grayscale input becomes locally colored at
    // high-contrast edges.
    RgbImage checker(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x) {
            const double v = (((x / 8) + (y / 8)) & 1) ? 1.0 : 0.0;
            checker.setPixel(x, y, Vec3(v, v, v));
        }
    TimewarpParams params;
    params.lens_distortion = false;
    params.chromatic_correction = true;
    Timewarp warp(params);
    const Pose pose = Pose::identity();
    const RgbImage out = warp.reproject(checker, pose, pose);

    double max_chroma = 0.0;
    for (int y = 2; y < 62; ++y)
        for (int x = 2; x < 62; ++x)
            max_chroma = std::max(
                max_chroma, static_cast<double>(std::fabs(
                                out.r.at(x, y) - out.b.at(x, y))));
    EXPECT_GT(max_chroma, 0.05);
}

TEST(TimewarpTest, TaskProfileHasAllTableRows)
{
    RgbImage img(32, 32, Vec3(0.5, 0.5, 0.5));
    Timewarp warp;
    warp.reproject(img, Pose::identity(), Pose::identity());
    EXPECT_GT(warp.profile().taskSeconds("fbo"), 0.0);
    EXPECT_GT(warp.profile().taskSeconds("state_update"), 0.0);
    EXPECT_GT(warp.profile().taskSeconds("reprojection"), 0.0);
}

/** FNV-1a over the bytes of each colour plane of @p img. */
std::uint64_t
digestImage(std::uint64_t h, const RgbImage &img)
{
    for (const ImageF *plane : {&img.r, &img.g, &img.b}) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(plane->data());
        for (std::size_t i = 0; i < plane->pixelCount() * sizeof(float);
             ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/**
 * Calls fn(frame, render_pose, fresh_pose) for 6 Sponza stereo frames
 * (lab walk, seed 7) of @p width x @p height px eyes, each warped to 5
 * fresh poses: from no motion up to a 1.2 rad yaw that puts part of
 * the warp mesh behind the render camera.
 */
template <typename F>
void
forEachWarpCase(int width, int height, F &&fn)
{
    const Trajectory traj = Trajectory::labWalk(7);
    AppConfig cfg;
    cfg.eye_width = width;
    cfg.eye_height = height;
    XrApplication app(AppId::Sponza, cfg);
    const Quat deltas[] = {
        Quat::identity(),
        Quat::fromAxisAngle(Vec3(0, 1, 0), 0.03),
        Quat::fromAxisAngle(Vec3(1, 0, 0), -0.08),
        Quat::fromAxisAngle(Vec3(1, 1, 1).normalized(), 0.25),
        Quat::fromAxisAngle(Vec3(0, 1, 0), 1.2),
    };
    for (int i = 0; i < 6; ++i) {
        const Pose head = traj.pose(i * 0.4);
        const StereoFrame f = app.renderFrame(head, i * 0.4);
        for (const Quat &d : deltas)
            fn(f, head, Pose(head.orientation * d, head.position));
    }
}

/** Digest of the single-eye warps of every forEachWarpCase() case. */
std::uint64_t
warpDigest(const TimewarpParams &params, int width, int height)
{
    Timewarp warp(params);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    forEachWarpCase(width, height, [&](const StereoFrame &f,
                                       const Pose &head,
                                       const Pose &fresh) {
        h = digestImage(h, warp.reproject(f.left, head, fresh));
        h = digestImage(h, warp.reproject(f.right, head, fresh));
    });
    return h;
}

TEST(TimewarpTest, WarpMatchesSeedDigests)
{
    // Digests of the per-eye scalar warp. Restructuring the warp loop
    // is a pure optimization: every display pixel must stay
    // bit-identical.
    TimewarpParams def;
    TimewarpParams no_chroma;
    no_chroma.chromatic_correction = false;
    TimewarpParams no_lens;
    no_lens.lens_distortion = false;
    struct Golden
    {
        const char *name;
        const TimewarpParams *params;
        int width, height;
        std::uint64_t digest;
    };
    const Golden golden[] = {
        {"default", &def, 80, 80, 0x0d2b9b0da28179e0ULL},
        {"no_chroma", &no_chroma, 80, 80, 0x8caeaf079f04c0dbULL},
        {"no_lens", &no_lens, 80, 80, 0xac72128f7d33db36ULL},
        {"default_96x64", &def, 96, 64, 0x5558791fd5fccf4cULL},
        {"default_51x51", &def, 51, 51, 0x20264cdc55277484ULL},
    };
    for (const Golden &g : golden) {
        const std::uint64_t d = warpDigest(*g.params, g.width, g.height);
        EXPECT_EQ(d, g.digest) << g.name << ": got 0x" << std::hex << d;
    }
}

TEST(TimewarpTest, StereoEqualsTwoSingleEyeWarps)
{
    // One stereo pass shares the mesh, UVs and taps between the eyes;
    // each output must equal that eye's own warp bit for bit.
    TimewarpParams no_lens;
    no_lens.lens_distortion = false;
    for (const TimewarpParams &params : {TimewarpParams(), no_lens}) {
        Timewarp mono(params);
        Timewarp stereo(params);
        int cases = 0;
        forEachWarpCase(96, 64, [&](const StereoFrame &f,
                                    const Pose &head, const Pose &fresh) {
            RgbImage left, right;
            stereo.reprojectStereo(f.left, f.right, head, fresh, left,
                                   right);
            EXPECT_EQ(digestImage(0, left),
                      digestImage(0, mono.reproject(f.left, head, fresh)))
                << "case " << cases;
            EXPECT_EQ(digestImage(0, right),
                      digestImage(0, mono.reproject(f.right, head, fresh)))
                << "case " << cases;
            ++cases;
        });
        EXPECT_EQ(cases, 30);
    }
}

TEST(TimewarpTest, StereoRejectsMismatchedOrAliasedImages)
{
    Timewarp warp;
    RgbImage left, right;
    EXPECT_THROW(warp.reprojectStereo(RgbImage(32, 32), RgbImage(32, 16),
                                      Pose::identity(), Pose::identity(),
                                      left, right),
                 std::invalid_argument);
    EXPECT_THROW(warp.reprojectStereo(RgbImage(32, 32), RgbImage(16, 32),
                                      Pose::identity(), Pose::identity(),
                                      left, right),
                 std::invalid_argument);
    // Warping into an input would clear it before it is read.
    RgbImage eye(32, 32, Vec3(0.5, 0.5, 0.5));
    EXPECT_THROW(warp.reprojectStereo(eye, RgbImage(32, 32),
                                      Pose::identity(), Pose::identity(),
                                      eye, right),
                 std::invalid_argument);
    EXPECT_THROW(warp.reprojectStereo(RgbImage(32, 32), eye,
                                      Pose::identity(), Pose::identity(),
                                      left, left),
                 std::invalid_argument);
}

TEST(TimewarpTest, PositionalReprojectionHandlesTranslation)
{
    // Translate the head sideways; positional reprojection (using
    // depth) should beat rotational reprojection, which cannot model
    // parallax.
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    const Pose pose_a(Quat::identity(), Vec3(0, 1.2, 4.0));
    const Pose pose_b(Quat::identity(), Vec3(0.12, 1.2, 4.0));

    // Render frame at A plus its depth buffer.
    Rasterizer raster(64, 64);
    Scene scene(AppId::Platformer);
    scene.update(0.0);
    raster.clear(scene.backgroundColor());
    const Mat4 view = viewMatrixFromPose(pose_a);
    const Mat4 proj = Mat4::perspective(cfg.fov_y_rad, 1.0, cfg.near_z,
                                        cfg.far_z);
    for (std::size_t i = 0; i < scene.objects().size(); ++i)
        raster.draw(scene.objects()[i].mesh, scene.objectTransform(i),
                    view, proj, DirectionalLight{});
    const RgbImage frame_a = raster.color();
    const ImageF depth_a = raster.depth();

    // Native render at B for reference.
    Rasterizer raster_b(64, 64);
    raster_b.clear(scene.backgroundColor());
    const Mat4 view_b = viewMatrixFromPose(pose_b);
    for (std::size_t i = 0; i < scene.objects().size(); ++i)
        raster_b.draw(scene.objects()[i].mesh, scene.objectTransform(i),
                      view_b, proj, DirectionalLight{});
    const RgbImage frame_b = raster_b.color();

    TimewarpParams params;
    params.fov_y_rad = cfg.fov_y_rad;
    params.lens_distortion = false;
    params.chromatic_correction = false;
    Timewarp warp(params);
    const RgbImage rot = warp.reproject(frame_a, pose_a, pose_b);
    const RgbImage pos = warp.reprojectPositional(
        frame_a, depth_a, pose_a, pose_b, cfg.near_z, cfg.far_z);

    const double ssim_rot = ssim(rot, frame_b);
    const double ssim_pos = ssim(pos, frame_b);
    EXPECT_GT(ssim_pos, ssim_rot)
        << "positional=" << ssim_pos << " rotational=" << ssim_rot;
}

TEST(HologramTest, ErrorDecreasesOverIterations)
{
    HologramParams params;
    params.resolution = 64;
    params.iterations = 6;
    params.depth_planes = 2;
    HologramGenerator gen(params);

    RgbImage target(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x) {
            const double v =
                (std::hypot(x - 32.0, y - 32.0) < 16.0) ? 0.9 : 0.05;
            target.setPixel(x, y, Vec3(v, v, v));
        }
    const HologramResult result = gen.compute(target);
    ASSERT_EQ(result.error_history.size(), 6u);
    EXPECT_LT(result.error_history.back(),
              result.error_history.front());
    EXPECT_LT(result.rms_error, 0.9);
    EXPECT_EQ(result.phase.width(), 64);
}

TEST(HologramTest, PhaseIsBounded)
{
    HologramParams params;
    params.resolution = 32;
    params.iterations = 2;
    HologramGenerator gen(params);
    RgbImage target(32, 32, Vec3(0.5, 0.5, 0.5));
    const HologramResult result = gen.compute(target);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            EXPECT_GE(result.phase.at(x, y), -M_PI - 1e-5);
            EXPECT_LE(result.phase.at(x, y), M_PI + 1e-5);
        }
    }
}

TEST(HologramTest, TaskProfileHasAllTableRows)
{
    HologramParams params;
    params.resolution = 32;
    params.iterations = 2;
    HologramGenerator gen(params);
    RgbImage target(32, 32, Vec3(0.5, 0.5, 0.5));
    gen.compute(target);
    EXPECT_GT(gen.profile().taskSeconds("hologram_to_depth"), 0.0);
    EXPECT_GT(gen.profile().taskSeconds("sum"), 0.0);
    EXPECT_GT(gen.profile().taskSeconds("depth_to_hologram"), 0.0);
}

TEST(HologramTest, DepthStackUsesDepthBuffer)
{
    HologramParams params;
    params.resolution = 32;
    params.iterations = 2;
    params.depth_planes = 3;
    HologramGenerator gen(params);
    RgbImage target(32, 32, Vec3(0.6, 0.6, 0.6));
    ImageF depth(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            depth.at(x, y) = (x < 16) ? -0.8f : 0.8f; // Two bands.
    const HologramResult result = gen.compute(target, &depth);
    EXPECT_EQ(result.plane_weights.size(), 3u);
    EXPECT_GT(result.error_history.size(), 0u);
}

} // namespace
} // namespace illixr
