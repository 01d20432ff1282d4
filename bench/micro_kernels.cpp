/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels behind the
 * ILLIXR components: FFT, FAST, KLT, Cholesky/QR, rasterization,
 * TSDF integration, GS iteration, convolution, binauralization, and
 * the CNN convolution — the "acceleratable primitives" of paper §V-B.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"

#include "audio/ambisonics.hpp"
#include "audio/binaural.hpp"
#include "audio/clips.hpp"
#include "eyetrack/ritnet.hpp"
#include "image/filter.hpp"
#include "linalg/decomp.hpp"
#include "recon/tsdf.hpp"
#include "render/app.hpp"
#include "sensors/trajectory.hpp"
#include "sensors/world.hpp"
#include "signal/fft.hpp"
#include "slam/fast.hpp"
#include "slam/klt.hpp"
#include "visual/hologram.hpp"
#include "visual/timewarp.hpp"

namespace illixr {
namespace {

void
BM_Fft1024(benchmark::State &state)
{
    std::vector<Complex> data(1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = Complex(std::sin(0.1 * i), 0.0);
    for (auto _ : state) {
        fft(data, false);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_Fft1024);

void
BM_CholeskySolve64(benchmark::State &state)
{
    Rng rng(1);
    MatX a(64, 64);
    for (std::size_t i = 0; i < 64; ++i)
        for (std::size_t j = 0; j < 64; ++j)
            a(i, j) = rng.uniform(-1, 1);
    MatX spd = a.transposeTimes(a);
    for (std::size_t i = 0; i < 64; ++i)
        spd(i, i) += 64.0;
    VecX b(64);
    for (std::size_t i = 0; i < 64; ++i)
        b[i] = rng.uniform(-1, 1);
    for (auto _ : state) {
        Cholesky chol(spd);
        VecX x = chol.solve(b);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_CholeskySolve64);

void
BM_HouseholderQr96x48(benchmark::State &state)
{
    Rng rng(2);
    MatX a(96, 48);
    for (std::size_t i = 0; i < 96; ++i)
        for (std::size_t j = 0; j < 48; ++j)
            a(i, j) = rng.uniform(-1, 1);
    for (auto _ : state) {
        HouseholderQR qr(a);
        benchmark::DoNotOptimize(qr.matrixR());
    }
}
BENCHMARK(BM_HouseholderQr96x48);

const ImageF &
cameraFrame()
{
    static const ImageF frame = [] {
        const SyntheticWorld world = SyntheticWorld::labRoom();
        const CameraRig rig = CameraRig::standard(
            CameraIntrinsics::fromFov(192, 144, 1.5));
        const Pose body(Quat::identity(), Vec3(0, 1.6, 0));
        return world.renderGray(rig.intrinsics,
                                rig.worldToCamera(body));
    }();
    return frame;
}

void
BM_FastDetect(benchmark::State &state)
{
    const ImageF &img = cameraFrame();
    for (auto _ : state) {
        auto corners = detectFast(img);
        benchmark::DoNotOptimize(corners.data());
    }
}
BENCHMARK(BM_FastDetect);

void
BM_KltTrack50(benchmark::State &state)
{
    const ImageF &img = cameraFrame();
    ImagePyramid pyr(img, 3);
    const auto corners = detectFastGrid(img, 8, 6, 2, {});
    std::vector<Vec2> points;
    for (std::size_t i = 0; i < std::min<std::size_t>(50, corners.size());
         ++i)
        points.push_back(corners[i].position);
    for (auto _ : state) {
        auto results = trackPoints(pyr, pyr, points);
        benchmark::DoNotOptimize(results.data());
    }
}
BENCHMARK(BM_KltTrack50);

void
BM_GaussianBlur(benchmark::State &state)
{
    const ImageF &img = cameraFrame();
    for (auto _ : state) {
        ImageF out = gaussianBlur(img, 1.5);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_GaussianBlur);

void
BM_Pyramid(benchmark::State &state)
{
    auto base = std::make_shared<const ImageF>(cameraFrame());
    for (auto _ : state) {
        ImagePyramid pyr(base, 3);
        benchmark::DoNotOptimize(pyr.level(pyr.levels() - 1).data());
    }
}
BENCHMARK(BM_Pyramid);

void
BM_MsckfGemm(benchmark::State &state)
{
    // Shape of the covariance-update products: K (n x m) times
    // (H P) (m x n) with n = 15 + 6 clones + slam, m = compressed
    // measurement rows.
    Rng rng(3);
    MatX k(75, 64), hp(64, 75);
    for (std::size_t i = 0; i < k.rows(); ++i)
        for (std::size_t j = 0; j < k.cols(); ++j)
            k(i, j) = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < hp.rows(); ++i)
        for (std::size_t j = 0; j < hp.cols(); ++j)
            hp(i, j) = rng.uniform(-1, 1);
    for (auto _ : state) {
        MatX prod = k * hp;
        benchmark::DoNotOptimize(prod.data());
    }
}
BENCHMARK(BM_MsckfGemm);

void
BM_RasterizeArDemo(benchmark::State &state)
{
    AppConfig cfg;
    cfg.eye_width = 80;
    cfg.eye_height = 80;
    XrApplication app(AppId::ArDemo, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.2, 0));
    double t = 0.0;
    for (auto _ : state) {
        StereoFrame frame = app.renderFrame(head, t += 0.008);
        benchmark::DoNotOptimize(frame.left.r.data());
    }
}
BENCHMARK(BM_RasterizeArDemo);

void
BM_RasterizeSponza(benchmark::State &state)
{
    // 80x80 eyes cycling through 120 lab-walk poses (6 s of walking),
    // so the lighting cache and whole-object reject see real views.
    AppConfig cfg;
    cfg.eye_width = 80;
    cfg.eye_height = 80;
    XrApplication app(AppId::Sponza, cfg);
    const Trajectory walk = Trajectory::labWalk(7);
    int i = 0;
    for (auto _ : state) {
        const double t = 0.05 * (i++ % 120);
        StereoFrame frame = app.renderFrame(walk.pose(t), t);
        benchmark::DoNotOptimize(frame.left.r.data());
    }
}
BENCHMARK(BM_RasterizeSponza);

void
BM_TimewarpReproject(benchmark::State &state)
{
    RgbImage frame(80, 80, Vec3(0.4, 0.5, 0.6));
    Timewarp warp;
    const Pose a = Pose::identity();
    const Pose b(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.01), Vec3());
    for (auto _ : state) {
        RgbImage out = warp.reproject(frame, a, b);
        benchmark::DoNotOptimize(out.r.data());
    }
}
BENCHMARK(BM_TimewarpReproject);

void
BM_TimewarpStereo(benchmark::State &state)
{
    // Both 80x80 eyes of one display frame in a single warp pass.
    RgbImage left(80, 80, Vec3(0.4, 0.5, 0.6));
    RgbImage right(80, 80, Vec3(0.6, 0.5, 0.4));
    Timewarp warp;
    const Pose a = Pose::identity();
    const Pose b(Quat::fromAxisAngle(Vec3(0, 1, 0), 0.01), Vec3());
    RgbImage out_left, out_right;
    for (auto _ : state) {
        warp.reprojectStereo(left, right, a, b, out_left, out_right);
        benchmark::DoNotOptimize(out_left.r.data());
        benchmark::DoNotOptimize(out_right.r.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_TimewarpStereo);

void
BM_GsIteration64(benchmark::State &state)
{
    HologramParams params;
    params.resolution = 64;
    params.iterations = 1;
    params.depth_planes = 2;
    HologramGenerator gen(params);
    RgbImage target(64, 64, Vec3(0.5, 0.5, 0.5));
    for (auto _ : state) {
        HologramResult r = gen.compute(target);
        benchmark::DoNotOptimize(r.rms_error);
    }
}
BENCHMARK(BM_GsIteration64);

void
BM_TsdfIntegrate(benchmark::State &state)
{
    TsdfParams params;
    params.resolution = 64;
    params.side_meters = 4.0;
    params.origin = Vec3(-2, -2, -0.5);
    TsdfVolume vol(params);
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(96, 72, 1.2);
    DepthImage depth(96, 72, 2.0f);
    for (auto _ : state) {
        vol.integrate(depth, intr, Pose::identity());
        benchmark::DoNotOptimize(vol.observedVoxelCount());
    }
}
BENCHMARK(BM_TsdfIntegrate);

void
BM_AmbisonicEncode(benchmark::State &state)
{
    const auto mono = synthesizeClip(ClipKind::Music, 1024, 48000.0);
    Soundfield field(1024);
    for (auto _ : state) {
        field.clear();
        encodeSource(mono, Vec3(0.6, 0.5, 0.6).normalized(), field);
        benchmark::DoNotOptimize(field.channels[0].data());
    }
}
BENCHMARK(BM_AmbisonicEncode);

void
BM_Binauralize1024(benchmark::State &state)
{
    Binauralizer binaural(1024);
    const auto mono = synthesizeClip(ClipKind::Noise, 1024, 48000.0);
    Soundfield field(1024);
    encodeSource(mono, Vec3(1, 0, 0), field);
    for (auto _ : state) {
        StereoBlock out = binaural.process(field);
        benchmark::DoNotOptimize(out.left.data());
    }
}
BENCHMARK(BM_Binauralize1024);

void
BM_CnnForward(benchmark::State &state)
{
    EyeImageGenerator gen;
    RitNet net(gen.params().width, gen.params().height);
    const ImageF eye = gen.generate(0);
    for (auto _ : state) {
        Tensor probs = net.segment(eye);
        benchmark::DoNotOptimize(probs.data());
    }
}
BENCHMARK(BM_CnnForward);

} // namespace
} // namespace illixr

int
main(int argc, char **argv)
{
    return illixr::benchjson::benchJsonMain(argc, argv);
}
