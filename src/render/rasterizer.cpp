#include "render/rasterizer.hpp"

#include "foundation/check.hpp"
#include "foundation/simd.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace illixr {

namespace {

using simd::VecD4;

/** Vertices (and pixels) per lane group of the vector loops. */
constexpr std::size_t kLanes = 4;

/** Lane l of a run of pixels starting at x samples x + l + 0.5. */
constexpr double kPixelCenters[kLanes] = {0.5, 1.5, 2.5, 3.5};

double
edgeFunction(double ax, double ay, double bx, double by, double cx,
             double cy)
{
    return (cx - ax) * (by - ay) - (cy - ay) * (bx - ax);
}

/** Rows of the framebuffer covered by one rasterizer tile band. */
constexpr int kBandRows = 16;

/** Max over the sphere (@p c, @p r) of the affine function
 *  l0 x + l1 y + l2 z + l3. */
double
maxOverSphere(double l0, double l1, double l2, double l3, const Vec3 &c,
              double r)
{
    return l0 * c.x + l1 * c.y + l2 * c.z + l3 +
           r * std::sqrt(l0 * l0 + l1 * l1 + l2 * l2);
}

} // namespace

void
lightMesh(const Mesh &mesh, const Mat4 &model, const DirectionalLight &light,
          ShadingModel shading, LitMesh &out)
{
    const std::size_t n = mesh.vertices.size();
    out.model = model;
    out.light = light;
    out.shading = shading;
    out.world.resize(n);
    out.normal.resize(n);
    out.color.resize(n);
    const std::size_t padded = (n + kLanes - 1) / kLanes * kLanes;
    out.pos_x.assign(padded, 0.0);
    out.pos_y.assign(padded, 0.0);
    out.pos_z.assign(padded, 0.0);
    const Vec3 light_dir = light.direction.normalized();
    parallelFor("raster_light", 0, n, 64,
                [&](std::size_t vb, std::size_t ve) {
        for (std::size_t i = vb; i < ve; ++i) {
            const Vertex &v = mesh.vertices[i];
            out.pos_x[i] = v.position.x;
            out.pos_y[i] = v.position.y;
            out.pos_z[i] = v.position.z;
            out.world[i] = model.transformPoint(v.position);
            const Vec3 nrm = model.transformDirection(v.normal).normalized();
            out.normal[i] = nrm;
            if (shading == ShadingModel::Gouraud) {
                const double diffuse =
                    std::max(0.0, nrm.dot(light_dir)) * light.intensity;
                out.color[i] = v.color * (light.ambient + diffuse);
            } else {
                out.color[i] = v.color;
            }
        }
    });

    Vec3 lo, hi;
    mesh.bounds(lo, hi);
    out.bound_center = (lo + hi) * 0.5;
    double r2 = 0.0;
    for (const Vertex &v : mesh.vertices)
        r2 = std::max(r2, (v.position - out.bound_center).squaredNorm());
    out.bound_radius = std::sqrt(r2);
}

bool
sphereOutsideView(const Vec3 &center, double radius, const Mat4 &mvp,
                  int width, int height)
{
    // Each test is a half-space of clip = mvp * (p, 1), i.e. an affine
    // function of the model-space point p; the object is rejected when
    // the whole sphere lies on its non-positive side. A vertex with
    // clip w > 0 has screen x = (x / w + 1) * width / 2, so lying
    // kRejectMarginPx beyond the left edge is x + kx * w < 0.
    const auto &m = mvp.m;
    const double kx = 1.0 + 2.0 * kRejectMarginPx / width;
    const double ky = 1.0 + 2.0 * kRejectMarginPx / height;
    // True when s * row + k * w <= 0 over the whole sphere.
    const auto beyond = [&](const double *row, double s, double k) {
        return maxOverSphere(s * row[0] + k * m[3][0],
                             s * row[1] + k * m[3][1],
                             s * row[2] + k * m[3][2],
                             s * row[3] + k * m[3][3], center,
                             radius) <= 0.0;
    };
    return beyond(m[0], 0.0, 1.0) ||  // Behind the eye: w <= 0.
           beyond(m[0], 1.0, kx) ||   // Left: x + kx w <= 0.
           beyond(m[0], -1.0, kx) ||  // Right: kx w - x <= 0.
           beyond(m[1], -1.0, ky) ||  // Top (y down): ky w - y <= 0.
           beyond(m[1], 1.0, ky);     // Bottom: y + ky w <= 0.
}

Rasterizer::Rasterizer(int width, int height)
    : color_(width, height), depth_(width, height, 1e30f)
{
}

void
Rasterizer::clear(const Vec3 &color)
{
    color_.r.fill(static_cast<float>(color.x));
    color_.g.fill(static_cast<float>(color.y));
    color_.b.fill(static_cast<float>(color.z));
    depth_.fill(1e30f);
}

void
Rasterizer::draw(const Mesh &mesh, const Mat4 &model, const Mat4 &view,
                 const Mat4 &proj, const DirectionalLight &light,
                 ShadingModel shading)
{
    LitMesh lit;
    lightMesh(mesh, model, light, shading, lit);
    draw(mesh, lit, view, proj);
}

void
Rasterizer::draw(const Mesh &mesh, const LitMesh &lit, const Mat4 &view,
                 const Mat4 &proj)
{
    ++stats_.draw_calls;
    stats_.triangles_submitted += mesh.triangleCount();

    const int w = width();
    const int h = height();
    const Mat4 mv = view * lit.model;
    const Mat4 mvp = proj * mv;
    if (sphereOutsideView(lit.bound_center, lit.bound_radius, mvp, w, h))
        return;

    const double half_w = w / 2.0;
    const double half_h = h / 2.0;

    // --- Project every vertex, 4 lanes at a time over the padded
    // position arrays (no scalar tail). Each clip row is the unfused
    // 0 + m0 x + m1 y + m2 z + m3 * 1 sequence of Mat4 * Vec4, and the
    // divide and screen mapping are the scalar expressions per lane,
    // so every lane is bit-identical to the one-vertex-at-a-time
    // projection. (`char`, not `vector<bool>`: tiles write disjoint
    // plain bytes, never shared packed words.) ---
    const std::size_t padded = lit.pos_x.size();
    ILLIXR_CHECK(padded == (mesh.vertices.size() + kLanes - 1) / kLanes *
                               kLanes,
                 "Rasterizer::draw: LitMesh built from another mesh");
    projected_.resize(padded);
    valid_.resize(padded);
    VecD4 rows[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            rows[r][c] = VecD4::broadcast(mvp.m[r][c]);
    parallelFor("raster_xform", 0, padded / kLanes, 16,
                [&](std::size_t gb, std::size_t ge) {
        const VecD4 zero = VecD4::zero();
        const VecD4 one = VecD4::broadcast(1.0);
        for (std::size_t g = gb; g < ge; ++g) {
            const std::size_t i0 = g * kLanes;
            const VecD4 x = VecD4::load(&lit.pos_x[i0]);
            const VecD4 y = VecD4::load(&lit.pos_y[i0]);
            const VecD4 z = VecD4::load(&lit.pos_z[i0]);
            const auto clip = [&](const VecD4 *m) {
                return madd(madd(madd(madd(zero, m[0], x), m[1], y), m[2],
                                 z),
                            m[3], one);
            };
            const VecD4 cw = clip(rows[3]);
            // Lanes with w <= 1e-6 (behind the near plane) are
            // invalid; their projection is computed but never read.
            const int valid =
                maskBits(cmpGT(cw, VecD4::broadcast(1e-6)));
            const VecD4 inv_w = one / cw;
            // Screen-space coordinates (y down).
            double sx[kLanes], sy[kLanes], sz[kLanes], iw[kLanes];
            ((clip(rows[0]) * inv_w + one) * VecD4::broadcast(half_w))
                .store(sx);
            ((one - clip(rows[1]) * inv_w) * VecD4::broadcast(half_h))
                .store(sy);
            (clip(rows[2]) * inv_w).store(sz);
            inv_w.store(iw);
            for (std::size_t l = 0; l < kLanes; ++l) {
                valid_[i0 + l] = (valid >> l) & 1;
                projected_[i0 + l] = {sx[l], sy[l], sz[l], iw[l]};
            }
        }
    });

    // --- Triangle setup (serial): cull, clamp, and record screen
    // geometry in submission order. ---
    tris_.clear();
    for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
        const std::uint32_t ia = mesh.indices[t];
        const std::uint32_t ib = mesh.indices[t + 1];
        const std::uint32_t ic = mesh.indices[t + 2];
        if (!valid_[ia] || !valid_[ib] || !valid_[ic])
            continue;
        const double ax = projected_[ia].sx, ay = projected_[ia].sy;
        const double bx = projected_[ib].sx, by = projected_[ib].sy;
        const double cx = projected_[ic].sx, cy = projected_[ic].sy;

        const double area = edgeFunction(ax, ay, bx, by, cx, cy);
        if (area <= 0.0)
            continue; // Backface (front faces are CCW, positive area).

        // Bounding box clamp.
        const int x0 = std::max(
            0, static_cast<int>(std::floor(std::min({ax, bx, cx}))));
        const int x1 = std::min(
            w - 1, static_cast<int>(std::ceil(std::max({ax, bx, cx}))));
        const int y0 = std::max(
            0, static_cast<int>(std::floor(std::min({ay, by, cy}))));
        const int y1 = std::min(
            h - 1, static_cast<int>(std::ceil(std::max({ay, by, cy}))));
        if (x0 > x1 || y0 > y1)
            continue;
        ++stats_.triangles_rasterized;
        tris_.push_back({ia, ib, ic, ax, ay, bx, by, cx, cy, 1.0 / area,
                         x0, x1, y0, y1});
    }
    if (tris_.empty())
        return;

    // --- Bin triangles into horizontal tile bands (serial, so each
    // band sees its triangles in submission order). ---
    const std::size_t bands =
        (static_cast<std::size_t>(h) + kBandRows - 1) / kBandRows;
    bins_.resize(bands);
    for (std::vector<std::uint32_t> &bin : bins_)
        bin.clear();
    for (std::size_t i = 0; i < tris_.size(); ++i) {
        for (int band = tris_[i].y0 / kBandRows;
             band <= tris_[i].y1 / kBandRows; ++band)
            bins_[static_cast<std::size_t>(band)].push_back(
                static_cast<std::uint32_t>(i));
    }

    const Vec3 light_dir = lit.light.direction.normalized();
    const DirectionalLight &light = lit.light;
    const bool gouraud = lit.shading == ShadingModel::Gouraud;
    // Camera position in world space (for specular).
    Vec3 eye;
    if (!gouraud) {
        const Mat4 view_inv = view.inverse();
        eye = Vec3(view_inv(0, 3), view_inv(1, 3), view_inv(2, 3));
    }

    // --- Rasterize bands in parallel. Every pixel belongs to exactly
    // one band and each band replays its triangles in submission
    // order, so the depth-test sequence per pixel is identical to the
    // serial rasterizer. Fragment counts combine in band order. ---
    const VecD4 zero4 = VecD4::zero();
    const VecD4 centers4 = VecD4::load(kPixelCenters);
    std::vector<std::size_t> band_frags(bands, 0);
    parallelFor("raster_tiles", 0, bands, 1,
                [&](std::size_t bb, std::size_t be) {
    for (std::size_t band = bb; band < be; ++band) {
        const int band_y0 = static_cast<int>(band) * kBandRows;
        const int band_y1 = std::min(h - 1, band_y0 + kBandRows - 1);
        std::size_t frags = 0;
        for (const std::uint32_t ti : bins_[band]) {
            const SetupTriangle &s = tris_[ti];
            const ProjectedVertex &a = projected_[s.ia];
            const ProjectedVertex &b = projected_[s.ib];
            const ProjectedVertex &c = projected_[s.ic];
            const double ax = s.ax, ay = s.ay, bx = s.bx, by = s.by,
                         cx = s.cx, cy = s.cy;
            const double inv_area = s.inv_area;
            // Edge functions w_k = (sx - px_k) * ey_k - (sy - py_k) *
            // ex_k, with the per-triangle and per-row products hoisted
            // out of the pixel loop (same operations, same order).
            const double e0x = cx - bx, e0y = cy - by;
            const double e1x = ax - cx, e1y = ay - cy;
            const double e2x = bx - ax, e2y = by - ay;
            const VecD4 bx4 = VecD4::broadcast(bx);
            const VecD4 cx4 = VecD4::broadcast(cx);
            const VecD4 ax4 = VecD4::broadcast(ax);
            const VecD4 e0y4 = VecD4::broadcast(e0y);
            const VecD4 e1y4 = VecD4::broadcast(e1y);
            const VecD4 e2y4 = VecD4::broadcast(e2y);
        for (int py = std::max(s.y0, band_y0);
             py <= std::min(s.y1, band_y1); ++py) {
            const double sy = py + 0.5;
            const double r0 = (sy - by) * e0x;
            const double r1 = (sy - cy) * e1x;
            const double r2 = (sy - ay) * e2x;
            const VecD4 r04 = VecD4::broadcast(r0);
            const VecD4 r14 = VecD4::broadcast(r1);
            const VecD4 r24 = VecD4::broadcast(r2);
            // Coverage of 4 pixels at a time: the per-pixel edge
            // functions on lanes, one outside mask (any w < 0, exactly
            // the scalar rejection, NaN included), then a visit of the
            // covered pixels only, in ascending x.
            for (int px4 = s.x0; px4 <= s.x1;
                 px4 += static_cast<int>(kLanes)) {
                const VecD4 sx4 = VecD4::broadcast(px4) + centers4;
                const VecD4 outside = bitOr(
                    bitOr(cmpLT((sx4 - bx4) * e0y4 - r04, zero4),
                          cmpLT((sx4 - cx4) * e1y4 - r14, zero4)),
                    cmpLT((sx4 - ax4) * e2y4 - r24, zero4));
                const int lanes = std::min(static_cast<int>(kLanes),
                                           s.x1 - px4 + 1);
                auto covered = static_cast<unsigned>(
                    ~maskBits(outside) & ((1 << lanes) - 1));
            for (; covered != 0; covered &= covered - 1) {
                const int px = px4 + std::countr_zero(covered);
                const double sx = px + 0.5;
                double w0 = (sx - bx) * e0y - r0;
                double w1 = (sx - cx) * e1y - r1;
                double w2 = (sx - ax) * e2y - r2;
                w0 *= inv_area;
                w1 *= inv_area;
                w2 *= inv_area;

                const double z = w0 * a.z + w1 * b.z + w2 * c.z;
                if (z < -1.0 || z > 1.0)
                    continue;
                if (z >= depth_.at(px, py))
                    continue;

                // Perspective-correct interpolation weights.
                const double wa = w0 * a.inv_w;
                const double wb = w1 * b.inv_w;
                const double wc = w2 * c.inv_w;
                const double iw = wa + wb + wc;
                const double pa = wa / iw;
                const double pb = wb / iw;
                const double pc = wc / iw;

                const Vec3 base = lit.color[s.ia] * pa +
                                  lit.color[s.ib] * pb +
                                  lit.color[s.ic] * pc;
                Vec3 rgb = base;
                if (!gouraud) {
                    const Vec3 n = (lit.normal[s.ia] * pa +
                                    lit.normal[s.ib] * pb +
                                    lit.normal[s.ic] * pc)
                                       .normalized();
                    const Vec3 world = lit.world[s.ia] * pa +
                                       lit.world[s.ib] * pb +
                                       lit.world[s.ic] * pc;
                    const double diffuse =
                        std::max(0.0, n.dot(light_dir)) *
                        light.intensity;
                    const Vec3 view_dir = (eye - world).normalized();
                    const Vec3 half_vec =
                        (view_dir + light_dir).normalized();
                    const double spec =
                        0.6 * std::pow(std::max(0.0, n.dot(half_vec)),
                                       24.0);
                    rgb = base * (light.ambient + diffuse) +
                          Vec3(spec, spec, spec);
                }
                depth_.at(px, py) = static_cast<float>(z);
                color_.setPixel(
                    px, py,
                    Vec3(std::clamp(rgb.x, 0.0, 1.0),
                         std::clamp(rgb.y, 0.0, 1.0),
                         std::clamp(rgb.z, 0.0, 1.0)));
                ++frags;
            }
            }
        }
        }
        band_frags[band] = frags;
    }
                });
    for (std::size_t band = 0; band < bands; ++band)
        stats_.fragments_shaded += band_frags[band];
}

} // namespace illixr
