#include "audio/ambisonics.hpp"

#include "foundation/check.hpp"
#include "linalg/decomp.hpp"

#include <cassert>
#include <cmath>

namespace illixr {

std::array<double, kAmbisonicChannels>
shEvaluate(const Vec3 &direction)
{
    const Vec3 d = direction.normalized();
    const double x = d.x, y = d.y, z = d.z;
    const double s3 = std::sqrt(3.0);
    return {
        1.0,                       // ACN 0 : W
        y,                         // ACN 1 : Y_1^-1
        z,                         // ACN 2 : Y_1^0
        x,                         // ACN 3 : Y_1^1
        s3 * x * y,                // ACN 4 : Y_2^-2
        s3 * y * z,                // ACN 5 : Y_2^-1
        (3.0 * z * z - 1.0) / 2.0, // ACN 6 : Y_2^0
        s3 * x * z,                // ACN 7 : Y_2^1
        s3 * (x * x - y * y) / 2.0 // ACN 8 : Y_2^2
    };
}

Soundfield::Soundfield(std::size_t block)
{
    resize(block);
}

void
Soundfield::resize(std::size_t block)
{
    block_size = block;
    for (auto &ch : channels)
        ch.assign(block, 0.0);
}

void
Soundfield::clear()
{
    for (auto &ch : channels)
        std::fill(ch.begin(), ch.end(), 0.0);
}

void
Soundfield::add(const Soundfield &other)
{
    ILLIXR_CHECK(block_size == other.block_size,
                 "Soundfield::add: block size mismatch");
    for (int c = 0; c < kAmbisonicChannels; ++c)
        for (std::size_t i = 0; i < block_size; ++i)
            channels[c][i] += other.channels[c][i];
}

double
Soundfield::energy() const
{
    double acc = 0.0;
    for (const auto &ch : channels)
        for (double v : ch)
            acc += v * v;
    return acc;
}

void
encodeSource(const std::vector<double> &mono, const Vec3 &direction_start,
             const Vec3 &direction_end, Soundfield &out)
{
    ILLIXR_CHECK(out.block_size == mono.size(),
                 "encodeSource: block size mismatch");
    const auto g0 = shEvaluate(direction_start);
    const auto g1 = shEvaluate(direction_end);
    const double inv_n =
        mono.size() > 1 ? 1.0 / static_cast<double>(mono.size() - 1) : 0.0;
    for (int c = 0; c < kAmbisonicChannels; ++c) {
        const double base = g0[c];
        const double slope = (g1[c] - g0[c]) * inv_n;
        double *dst = out.channels[c].data();
        // Per-sample gain ramp: dst += (base + slope * i) * mono[i].
        for (std::size_t i = 0; i < mono.size(); ++i)
            dst[i] += (base + slope * static_cast<double>(i)) * mono[i];
    }
}

namespace {

/** Well-spread sample directions for the SH-rotation solve. */
std::vector<Vec3>
sampleDirections()
{
    std::vector<Vec3> dirs = {
        {1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
        {0, -1, 0}, {0, 0, 1},  {0, 0, -1},
    };
    const double inv = 1.0 / std::sqrt(3.0);
    for (int sx = -1; sx <= 1; sx += 2)
        for (int sy = -1; sy <= 1; sy += 2)
            for (int sz = -1; sz <= 1; sz += 2)
                dirs.push_back(Vec3(sx * inv, sy * inv, sz * inv));
    return dirs;
}

/**
 * Solve the degree-l rotation block M (dim x dim) from samples:
 * M Y_l(d) = Y_l(R d). Exact because SH rotation is linear and the
 * sampling is over-determined.
 */
MatX
solveBlock(int l, const Quat &rotation, const std::vector<Vec3> &dirs)
{
    const int dim = 2 * l + 1;
    const int offset = l * l;
    const std::size_t k = dirs.size();
    MatX a(k, dim), b(k, dim);
    for (std::size_t i = 0; i < k; ++i) {
        const auto y_src = shEvaluate(dirs[i]);
        const auto y_dst = shEvaluate(rotation.rotate(dirs[i]));
        for (int j = 0; j < dim; ++j) {
            a(i, j) = y_src[offset + j];
            b(i, j) = y_dst[offset + j];
        }
    }
    // Normal equations: (A^T A) M^T = A^T B.
    const MatX ata = a.transposeTimes(a);
    const MatX atb = a.transposeTimes(b);
    Cholesky chol(ata);
    // An internal postcondition, not a caller precondition: ata is
    // the Gram matrix of the fixed 14-direction sample set and does
    // not depend on the rotation, so no input can make it fail. It
    // stays an assert rather than an ILLIXR_CHECK.
    assert(chol.ok());
    const MatX mt = chol.solve(atb);
    return mt.transpose();
}

} // namespace

SoundfieldRotator::SoundfieldRotator(const Quat &rotation)
{
    matrix_ = MatX::zero(kAmbisonicChannels, kAmbisonicChannels);
    matrix_(0, 0) = 1.0; // Degree 0 is rotation invariant.
    const auto dirs = sampleDirections();
    for (int l = 1; l <= kAmbisonicOrder; ++l) {
        const MatX block = solveBlock(l, rotation, dirs);
        matrix_.setBlock(l * l, l * l, block);
    }
}

void
SoundfieldRotator::apply(Soundfield &field) const
{
    std::array<double, kAmbisonicChannels> in;
    for (std::size_t i = 0; i < field.block_size; ++i) {
        for (int c = 0; c < kAmbisonicChannels; ++c)
            in[c] = field.channels[c][i];
        // Block-diagonal multiply (degree 0 passes through).
        for (int l = 1; l <= kAmbisonicOrder; ++l) {
            const int off = l * l;
            const int dim = 2 * l + 1;
            for (int r = 0; r < dim; ++r) {
                double acc = 0.0;
                for (int c = 0; c < dim; ++c)
                    acc += matrix_(off + r, off + c) * in[off + c];
                field.channels[off + r][i] = acc;
            }
        }
    }
}

void
zoomSoundfield(Soundfield &field, double amount)
{
    if (amount == 0.0)
        return;
    const double a = std::max(-1.0, std::min(1.0, amount));
    const double norm = 1.0 / (1.0 + std::fabs(a));
    // First-order zoom along +x (ACN 3); higher degrees are left
    // untouched (documented simplification of the full zoom matrix).
    double *w = field.channels[0].data();
    double *x = field.channels[3].data();
    for (std::size_t i = 0; i < field.block_size; ++i) {
        const double w_old = w[i];
        const double x_old = x[i];
        w[i] = (w_old + a * x_old) * norm;
        x[i] = (x_old + a * w_old) * norm;
    }
}

} // namespace illixr
