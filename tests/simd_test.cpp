/**
 * @file
 * Tests for the portable SIMD abstraction (foundation/simd.hpp) and
 * the vectorized kernels built on it:
 *
 *  - every lane op of the compiled backend matches the VecRef scalar
 *    oracle bit-for-bit (the cross-backend identity contract),
 *  - horizontal reductions use the documented fixed halving tree,
 *  - remainder loops (sizes that are not multiples of the vector
 *    width) match scalar references bit-for-bit,
 *  - packing buffers round-trip through the per-thread ScratchArena,
 *  - the raw-pointer kernel entry points abort on overlapping
 *    src/dst ranges (aliasing precondition).
 */

#include "foundation/simd.hpp"

#include "audio/ambisonics.hpp"
#include "audio/binaural.hpp"
#include "eyetrack/layers.hpp"
#include "foundation/rng.hpp"
#include "image/filter.hpp"
#include "linalg/matrix.hpp"
#include "recon/tsdf.hpp"
#include "runtime/parallel.hpp"
#include "signal/convolution.hpp"
#include "signal/fft.hpp"
#include "slam/fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace illixr {
namespace {

using simd::VecD4;
using simd::VecF8;
using RefF8 = simd::VecRef<float, 8>;
using RefD4 = simd::VecRef<double, 4>;

// Bitwise float equality (EXPECT_EQ compares values, which is the
// same thing for the non-NaN data used here, but comparing the bit
// patterns also distinguishes -0.0 from +0.0).
template <typename T>
::testing::AssertionResult
bitEqual(T a, T b)
{
    using U = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                 std::uint64_t>;
    if (std::bit_cast<U>(a) == std::bit_cast<U>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

// Values chosen so reordered or fused arithmetic would change the
// result: mixed magnitudes force rounding at every step.
const float kFloatLanes[8] = {1e7f,       -3.25f,  0.1f,  -1e-7f,
                              123456.78f, -0.0f,   2.5f,  7e6f};
const float kFloatLanes2[8] = {3.0f,   -1e7f, 0.25f, 5e-8f,
                               -7.75f, 2e6f,  -0.5f, 9.125f};
const double kDoubleLanes[4] = {1e15, -2.75, 3e-9, -123456.789};
const double kDoubleLanes2[4] = {-3e14, 7.125, -0.1, 2.5e8};

TEST(SimdLaneOps, FloatOpsMatchScalarOracleBitwise)
{
    const VecF8 a = VecF8::load(kFloatLanes);
    const VecF8 b = VecF8::load(kFloatLanes2);
    const RefF8 ra = RefF8::load(kFloatLanes);
    const RefF8 rb = RefF8::load(kFloatLanes2);

    auto check = [](VecF8 v, RefF8 r, const char *what) {
        float got[8], want[8];
        v.store(got);
        r.store(want);
        for (int i = 0; i < 8; ++i)
            EXPECT_TRUE(bitEqual(got[i], want[i]))
                << what << " lane " << i;
    };
    check(a + b, ra + rb, "add");
    check(a - b, ra - rb, "sub");
    check(a * b, ra * rb, "mul");
    check(a / b, ra / rb, "div");
    check(simd::vmin(a, b), simd::vmin(ra, rb), "vmin");
    check(simd::vmax(a, b), simd::vmax(ra, rb), "vmax");
    check(simd::madd(a, b, a), simd::madd(ra, rb, ra), "madd");
    check(simd::select(simd::cmpGT(a, b), a, b),
          simd::select(simd::cmpGT(ra, rb), ra, rb), "select");
    check(simd::bitXor(a, b), simd::bitXor(ra, rb), "bitXor");
    check(VecF8::broadcast(-0.0f), RefF8::broadcast(-0.0f),
          "broadcast");
}

TEST(SimdLaneOps, DoubleOpsMatchScalarOracleBitwise)
{
    const VecD4 a = VecD4::load(kDoubleLanes);
    const VecD4 b = VecD4::load(kDoubleLanes2);
    const RefD4 ra = RefD4::load(kDoubleLanes);
    const RefD4 rb = RefD4::load(kDoubleLanes2);

    auto check = [](VecD4 v, RefD4 r, const char *what) {
        double got[4], want[4];
        v.store(got);
        r.store(want);
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(bitEqual(got[i], want[i]))
                << what << " lane " << i;
    };
    check(a + b, ra + rb, "add");
    check(a - b, ra - rb, "sub");
    check(a * b, ra * rb, "mul");
    check(a / b, ra / rb, "div");
    check(simd::vmin(a, b), simd::vmin(ra, rb), "vmin");
    check(simd::vmax(a, b), simd::vmax(ra, rb), "vmax");
    check(simd::madd(a, b, a), simd::madd(ra, rb, ra), "madd");
    check(simd::dupEven(a), simd::dupEven(ra), "dupEven");
    check(simd::dupOdd(a), simd::dupOdd(ra), "dupOdd");
    check(simd::swapPairs(a), simd::swapPairs(ra), "swapPairs");
    check(simd::addSub(a, b), simd::addSub(ra, rb), "addSub");
    check(simd::vfloor(a), simd::vfloor(ra), "vfloor");
    check(simd::vceil(a), simd::vceil(ra), "vceil");
    const double halves[4] = {-0.5, 0.5, -2.5, 1e300};
    check(simd::vceil(VecD4::load(halves)),
          simd::vceil(RefD4::load(halves)), "vceil halves, -0");
    check(simd::vfloor(VecD4::load(halves)),
          simd::vfloor(RefD4::load(halves)), "vfloor halves");
    check(simd::setLanes(kDoubleLanes[0], kDoubleLanes[1],
                         kDoubleLanes[2], kDoubleLanes[3]),
          ra, "setLanes");
}

TEST(SimdLaneOps, ReductionUsesTheFixedHalvingTree)
{
    // The tree order and a serial sweep disagree for these lanes —
    // this test would catch a backend "optimizing" the reduction into
    // a different association.
    const float f[8] = {1e7f, 1.0f,  -1e7f, 2.0f,
                       3.0f, -4.0f, 5.5f,  0.25f};
    const float tree =
        ((f[0] + f[4]) + (f[2] + f[6])) + ((f[1] + f[5]) + (f[3] + f[7]));
    float serial = 0.0f;
    for (float v : f)
        serial += v;
    ASSERT_FALSE(bitEqual(tree, serial))
        << "lanes no longer order-sensitive; pick nastier values";

    EXPECT_TRUE(bitEqual(simd::hsum(VecF8::load(f)), tree));
    EXPECT_TRUE(bitEqual(simd::hsum(RefF8::load(f)), tree));

    const double d[4] = {1e15, 1.0, -1e15, 2.0};
    const double tree_d = (d[0] + d[2]) + (d[1] + d[3]);
    EXPECT_TRUE(bitEqual(simd::hsum(VecD4::load(d)), tree_d));
    EXPECT_TRUE(bitEqual(simd::hsum(RefD4::load(d)), tree_d));
}

TEST(SimdLaneOps, CompareMasksAndMaskBits)
{
    const float a[8] = {1, 5, 3, 3, -1, 0, 9, 2};
    const float b[8] = {2, 4, 3, 1, -2, 0, 8, 3};
    const VecF8 gt = simd::cmpGT(VecF8::load(a), VecF8::load(b));
    const VecF8 lt = simd::cmpLT(VecF8::load(a), VecF8::load(b));
    const VecF8 ge = simd::cmpGE(VecF8::load(a), VecF8::load(b));
    EXPECT_EQ(simd::maskBits(gt), 0b01011010);
    EXPECT_EQ(simd::maskBits(lt), 0b10000001);
    EXPECT_EQ(simd::maskBits(ge), 0b01111110);

    // Mask lanes are all-ones / all-zero bit patterns.
    float lanes[8];
    gt.store(lanes);
    for (int i = 0; i < 8; ++i) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(lanes[i]);
        EXPECT_TRUE(bits == 0u || bits == ~0u) << "lane " << i;
    }

    const double c[4] = {1, -3, 2, 2};
    const double e[4] = {0, -2, 2, 3};
    EXPECT_EQ(simd::maskBits(simd::cmpGT(VecD4::load(c), VecD4::load(e))),
              0b0001);
    EXPECT_EQ(simd::maskBits(simd::cmpGE(VecD4::load(c), VecD4::load(e))),
              0b0101);
}

TEST(SimdLaneOps, ComplexMulMatchesStdComplexBitwise)
{
    // complexMul's documented contract: the exact operation sequence
    // of the std::complex naive formula for finite operands.
    const double av[4] = {1.25, -3e7, 0.5, 17.75};
    const double bv[4] = {-2.5, 1e-3, 4.0, -0.125};
    double out[4];
    simd::complexMul(VecD4::load(av), VecD4::load(bv)).store(out);
    for (int p = 0; p < 2; ++p) {
        const std::complex<double> a(av[2 * p], av[2 * p + 1]);
        const std::complex<double> b(bv[2 * p], bv[2 * p + 1]);
        const std::complex<double> want = a * b;
        EXPECT_TRUE(bitEqual(out[2 * p], want.real())) << "pair " << p;
        EXPECT_TRUE(bitEqual(out[2 * p + 1], want.imag()))
            << "pair " << p;
    }
}

TEST(SimdLaneOps, WidenAndNarrowRoundExactly)
{
    const float f[4] = {1.1f, -3e7f, 0.0625f, -0.0f};
    double wide[4];
    simd::widenLoad(f).store(wide);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(wide[i], static_cast<double>(f[i])));

    // Values that round on the way back down.
    const double d[4] = {0.1, 1e20, -1.0000000001, 3.14159265358979};
    float narrow[4];
    simd::narrowStore4(VecD4::load(d), narrow);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bitEqual(narrow[i], static_cast<float>(d[i])));
}

TEST(SimdArena, PackingRoundTripsThroughScratchArena)
{
    // The NCHWc weight/plane packing pattern used by Conv2d: pack a
    // CHW block into [ic][8] interleaved form in arena scratch and
    // unpack it back — a pure permutation, so bits round-trip.
    constexpr int kC = 8, kN = 37; // Deliberately not a multiple of 8.
    Rng rng(42);
    std::vector<float> chw(kC * kN);
    for (float &v : chw)
        v = static_cast<float>(rng.uniform(-2.0, 2.0));

    ArenaFrame scratch;
    float *packed = scratch.alloc<float>(chw.size());
    for (int c = 0; c < kC; ++c)
        for (int i = 0; i < kN; ++i)
            packed[static_cast<std::size_t>(i) * kC + c] =
                chw[static_cast<std::size_t>(c) * kN + i];

    std::vector<float> back(chw.size());
    for (int i = 0; i < kN; ++i)
        for (int c = 0; c < kC; ++c)
            back[static_cast<std::size_t>(c) * kN + i] =
                packed[static_cast<std::size_t>(i) * kC + c];
    EXPECT_EQ(0, std::memcmp(chw.data(), back.data(),
                             chw.size() * sizeof(float)));
}

// ---------------------------------------------------------------------
// Remainder loops: kernel outputs at sizes that are NOT multiples of
// the vector width must match a scalar reference bit-for-bit.
// ---------------------------------------------------------------------

TEST(SimdKernels, ConvChannelTailMatchesScalarReference)
{
    // 10 output channels = one 8-wide block + a tail of 2; 9x7 input.
    constexpr int kIn = 3, kOut = 10, kK = 3, kH = 7, kW = 9;
    Rng rng(7);
    Conv2d conv(kIn, kOut, kK);
    conv.initializeHe(rng);
    for (int oc = 0; oc < kOut; ++oc)
        conv.bias(oc) = static_cast<float>(rng.uniform(-0.5, 0.5));

    Tensor input(kIn, kH, kW);
    for (int c = 0; c < kIn; ++c)
        for (int y = 0; y < kH; ++y)
            for (int x = 0; x < kW; ++x)
                input.at(c, y, x) =
                    static_cast<float>(rng.uniform(-1.0, 1.0));

    const Tensor out = conv.forward(input);

    // Scalar reference with the kernel's accumulation order: bias
    // first, then ic -> ky -> kx ascending.
    constexpr int kPad = kK / 2;
    for (int oc = 0; oc < kOut; ++oc) {
        for (int y = 0; y < kH; ++y) {
            for (int x = 0; x < kW; ++x) {
                float acc = conv.bias(oc);
                for (int ic = 0; ic < kIn; ++ic)
                    for (int ky = 0; ky < kK; ++ky)
                        for (int kx = 0; kx < kK; ++kx)
                            acc += conv.weight(oc, ic, ky, kx) *
                                   input.atPadded(ic, y + ky - kPad,
                                                  x + kx - kPad);
                EXPECT_TRUE(bitEqual(out.at(oc, y, x), acc))
                    << "oc=" << oc << " y=" << y << " x=" << x;
            }
        }
    }
}

TEST(SimdKernels, GaussianBlurOddWidthMatchesScalarReference)
{
    // Width 13: the 4-wide interior loop leaves head and tail pixels
    // on the scalar path, and the last vector block is partial.
    constexpr int kW = 13, kH = 5;
    const double sigma = 1.2;
    Rng rng(9);
    ImageF src(kW, kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            src.at(x, y) = static_cast<float>(rng.uniform(0.0, 1.0));

    const ImageF out = gaussianBlur(src, sigma);

    // Reference: the pre-SIMD two-pass separable blur (double
    // accumulator, serial taps, clamped borders).
    const int radius =
        std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<double> kernel(2 * radius + 1);
    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
        sum += kernel[i + radius];
    }
    for (double &v : kernel)
        v /= sum;
    auto clampi = [](int v, int lo, int hi) {
        return std::min(std::max(v, lo), hi);
    };
    std::vector<float> tmp(kW * kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k)
                acc += kernel[k + radius] *
                       src.at(clampi(x + k, 0, kW - 1), y);
            tmp[y * kW + x] = static_cast<float>(acc);
        }
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x) {
            double acc = 0.0;
            for (int k = -radius; k <= radius; ++k)
                acc += kernel[k + radius] *
                       tmp[clampi(y + k, 0, kH - 1) * kW + x];
            EXPECT_TRUE(bitEqual(out.at(x, y),
                                 static_cast<float>(acc)))
                << "x=" << x << " y=" << y;
        }
}

TEST(SimdKernels, GemmOddColumnsMatchScalarReference)
{
    // 7 columns: one 4-wide axpy block + a tail of 3.
    Rng rng(13);
    MatX a(6, 5), b(5, 7);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            a(i, j) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            b(i, j) = rng.uniform(-1.0, 1.0);
    a(2, 3) = 0.0; // Exercise the zero-skip.
    // transposeTimes contracts over rows: a^T (5x6) * c (6x7).
    MatX c(6, 7);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            c(i, j) = rng.uniform(-1.0, 1.0);

    const MatX prod = a * b;
    const MatX tn = a.transposeTimes(c);

    // Reference with the kernel's k-ascending axpy order.
    MatX want(6, 7);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t k = 0; k < 5; ++k) {
            const double s = a(i, k);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < 7; ++j)
                want(i, j) += s * b(k, j);
        }
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            EXPECT_TRUE(bitEqual(prod(i, j), want(i, j)))
                << i << "," << j;

    // Reference for a^T c, also k-ascending.
    MatX want_tn(5, 7);
    for (std::size_t k = 0; k < 6; ++k)
        for (std::size_t i = 0; i < 5; ++i) {
            const double s = a(k, i);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < 7; ++j)
                want_tn(i, j) += s * c(k, j);
        }
    ASSERT_EQ(tn.rows(), 5u);
    ASSERT_EQ(tn.cols(), 7u);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            EXPECT_TRUE(bitEqual(tn(i, j), want_tn(i, j)))
                << i << "," << j;
}

/** Reference FAST detector: the pre-SIMD scalar algorithm verbatim. */
std::vector<Corner>
referenceFast(const ImageF &img, const FastParams &p)
{
    constexpr int kCircle[16][2] = {{0, -3},  {1, -3},  {2, -2},  {3, -1},
                                    {3, 0},   {3, 1},   {2, 2},   {1, 3},
                                    {0, 3},   {-1, 3},  {-2, 2},  {-3, 1},
                                    {-3, 0},  {-3, -1}, {-2, -2}, {-1, -3}};
    const int w = img.width();
    const int h = img.height();
    const int border = std::max(p.border, 3);
    auto score_of = [&](int x, int y) -> float {
        const float center = img.at(x, y);
        const float hi = center + p.threshold;
        const float lo = center - p.threshold;
        int state[16];
        int n_bright = 0, n_dark = 0;
        for (int i = 0; i < 16; ++i) {
            const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
            if (v > hi) {
                state[i] = 1;
                ++n_bright;
            } else if (v < lo) {
                state[i] = -1;
                ++n_dark;
            } else {
                state[i] = 0;
            }
        }
        if (n_bright < p.min_contiguous && n_dark < p.min_contiguous)
            return 0.0f;
        auto longest_run = [&state](int polarity) {
            int best = 0, run = 0;
            for (int i = 0; i < 32; ++i) {
                if (state[i & 15] == polarity) {
                    ++run;
                    best = std::max(best, run);
                } else {
                    run = 0;
                }
            }
            return std::min(best, 16);
        };
        if (longest_run(1) < p.min_contiguous &&
            longest_run(-1) < p.min_contiguous)
            return 0.0f;
        float score = 0.0f;
        for (int i = 0; i < 16; ++i) {
            const float v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
            const float d = std::fabs(v - center);
            if (d > p.threshold)
                score += d - p.threshold;
        }
        return score;
    };

    std::vector<float> scores(static_cast<std::size_t>(w) * h, 0.0f);
    for (int y = border; y < h - border; ++y)
        for (int x = border; x < w - border; ++x)
            scores[static_cast<std::size_t>(y) * w + x] = score_of(x, y);

    std::vector<Corner> out;
    for (int y = border; y < h - border; ++y)
        for (int x = border; x < w - border; ++x) {
            const float s = scores[static_cast<std::size_t>(y) * w + x];
            if (s <= 0.0f)
                continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                    const int nx = std::clamp(x + dx, 0, w - 1);
                    const int ny = std::clamp(y + dy, 0, h - 1);
                    if ((dx || dy) &&
                        scores[static_cast<std::size_t>(ny) * w + nx] >
                            s) {
                        is_max = false;
                        break;
                    }
                }
            if (is_max)
                out.push_back({Vec2(x, y), s});
        }
    return out;
}

TEST(SimdKernels, FastDetectOddWidthMatchesScalarReference)
{
    // 37 - 2*4 = 29 candidate columns per row: three full 8-wide
    // blocks plus a scalar tail of 5.
    constexpr int kW = 37, kH = 29;
    Rng rng(21);
    ImageF img(kW, kH);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform(0.0, 1.0));
    // Plant a few strong corners so the list is non-trivial.
    for (int cy : {8, 16, 22})
        for (int dy = 0; dy < 3; ++dy)
            for (int dx = 0; dx < 3; ++dx)
                img.at(10 + dx, cy + dy) = 1.0f;

    const FastParams params;
    const auto got = detectFast(img, params);
    const auto want = referenceFast(img, params);

    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].position.x, want[i].position.x) << i;
        EXPECT_EQ(got[i].position.y, want[i].position.y) << i;
        EXPECT_TRUE(bitEqual(got[i].score, want[i].score)) << i;
    }
}

TEST(SimdKernels, TsdfScalarTailMatchesVectorLanes)
{
    // Two volumes over the SAME voxel grid (identical voxel size and
    // origin), resolutions 13 and 16. A voxel's update depends only
    // on its own world-space center, so voxels shared by both grids
    // must come out bit-identical — but in the res-13 volume the
    // x = 8..12 columns run the scalar remainder loop while res 16
    // puts them in full vector lanes. Sampling sdfAt (a pure function
    // of the 8 surrounding voxels) at interior points compares the
    // two paths bitwise.
    const CameraIntrinsics intr = CameraIntrinsics::fromFov(64, 48, 1.2);
    DepthImage depth(64, 48, 2.0f);
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 64; ++x)
            depth.at(x, y) += 0.02f * static_cast<float>((x * 7 + y) % 5);

    const double vs = 0.25;
    TsdfParams p13;
    p13.resolution = 13;
    p13.side_meters = 13 * vs;
    p13.origin = Vec3(-2.0, -2.0, -0.5);
    TsdfParams p16 = p13;
    p16.resolution = 16;
    p16.side_meters = 16 * vs;

    TsdfVolume v13(p13), v16(p16);
    ASSERT_EQ(v13.voxelSize(), v16.voxelSize());
    v13.integrate(depth, intr, Pose::identity());
    v16.integrate(depth, intr, Pose::identity());

    int observed = 0;
    for (int zi = 0; zi <= 11; ++zi)
        for (int yi = 0; yi <= 11; ++yi)
            for (int xi = 0; xi <= 11; ++xi) {
                const Vec3 pt = p13.origin +
                                Vec3((xi + 0.7) * vs, (yi + 0.7) * vs,
                                     (zi + 0.7) * vs);
                const float a = v13.sdfAt(pt);
                const float b = v16.sdfAt(pt);
                EXPECT_TRUE(bitEqual(a, b))
                    << "voxel " << xi << "," << yi << "," << zi;
                if (a != 1.0f)
                    ++observed;
            }
    EXPECT_GT(observed, 50) << "probe grid missed the observed region";
}

TEST(SimdKernels, FftSmallAndOddStagesMatchDft)
{
    // n = 4 runs only the scalar len-2 stage plus a single vector
    // butterfly; n = 8 adds a full vector stage. Check both against a
    // direct DFT and the inverse round-trip.
    for (const std::size_t n : {4u, 8u, 32u}) {
        Rng rng(31 + static_cast<int>(n));
        std::vector<Complex> x(n);
        for (auto &v : x)
            v = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        std::vector<Complex> f = x;
        fft(f, false);
        for (std::size_t k = 0; k < n; ++k) {
            Complex want(0.0, 0.0);
            for (std::size_t j = 0; j < n; ++j)
                want += x[j] *
                        std::polar(1.0, -2.0 * M_PI *
                                            static_cast<double>(j * k) /
                                            static_cast<double>(n));
            EXPECT_NEAR(f[k].real(), want.real(), 1e-9) << n << ":" << k;
            EXPECT_NEAR(f[k].imag(), want.imag(), 1e-9) << n << ":" << k;
        }
        fft(f, true);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(f[j].real(), x[j].real(), 1e-12);
            EXPECT_NEAR(f[j].imag(), x[j].imag(), 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Aliasing preconditions: the raw-pointer entry points must refuse
// overlapping src/dst instead of silently corrupting output.
// ---------------------------------------------------------------------

using SimdOverlapDeathTest = ::testing::Test;

TEST(KernelPreconditions, ShapeMismatchThrowsEvenWithAssertsOff)
{
    // The FFT, convolution, CNN-layer and audio entry points check
    // their shapes with ILLIXR_CHECK, not assert: a mismatch throws
    // in every build type instead of reading or writing out of bounds.
    std::vector<Complex> six(6);
    EXPECT_THROW(fft(six, false), std::invalid_argument);
    std::vector<Complex> grid(4 * 4);
    EXPECT_THROW(fft2d(grid, 4, 2, false), std::invalid_argument);
    std::vector<Complex> wide(6 * 4);
    EXPECT_THROW(fft2d(wide, 6, 4, false), std::invalid_argument);

    EXPECT_THROW(FrequencyDomainFilter({}, 8), std::invalid_argument);
    FrequencyDomainFilter filter({1.0, 0.5}, 8);
    EXPECT_THROW(filter.process(std::vector<double>(7)),
                 std::invalid_argument);

    EXPECT_THROW(Conv2d(2, 2, 5), std::invalid_argument);
    EXPECT_THROW(Conv2d(3, 2, 3).forward(Tensor(2, 4, 4)),
                 std::invalid_argument);
    EXPECT_THROW(BatchNorm(3).forward(Tensor(2, 4, 4)),
                 std::invalid_argument);
    EXPECT_THROW(concatChannels(Tensor(1, 4, 4), Tensor(1, 4, 2)),
                 std::invalid_argument);

    Soundfield field(64);
    EXPECT_THROW(field.add(Soundfield(32)), std::invalid_argument);
    EXPECT_THROW(encodeSource(std::vector<double>(32), Vec3(1, 0, 0),
                              field),
                 std::invalid_argument);
    EXPECT_THROW(Binauralizer(32).process(field), std::invalid_argument);
    PsychoacousticFilter psycho(32);
    EXPECT_THROW(psycho.process(field), std::invalid_argument);
}

TEST(SimdOverlapDeathTest, GaussianBlurAbortsOnOverlap)
{
    std::vector<float> buf(64 * 2, 0.5f);
    EXPECT_DEATH(
        detail::gaussianBlurRaw(buf.data(), 8, 8, 1.0, buf.data() + 16),
        "overlapping");
}

TEST(SimdOverlapDeathTest, DownsampleAbortsOnOverlap)
{
    std::vector<float> buf(64, 0.5f);
    EXPECT_DEATH(
        detail::downsampleHalfRaw(buf.data(), 8, 8, buf.data() + 4),
        "overlapping");
}

TEST(SimdOverlapDeathTest, DisjointRangesPass)
{
    std::vector<float> src(64, 0.5f), dst(64, 0.0f);
    // No abort: distinct ranges satisfy the precondition.
    detail::gaussianBlurRaw(src.data(), 8, 8, 1.0, dst.data());
    ASSERT_NE(dst[27], 0.0f);
}

} // namespace
} // namespace illixr
