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
using simd::setLanes;

/** Vertices (and pixels) per lane group of the vector loops. */
constexpr std::size_t kLanes = 4;

/** Lane l of a run of pixels starting at x samples x + l + 0.5. */
constexpr double kPixelCenters[kLanes] = {0.5, 1.5, 2.5, 3.5};
constexpr double kLaneIndex[kLanes] = {0.0, 1.0, 2.0, 3.0};

/** Rows of the framebuffer covered by one rasterizer tile band. */
constexpr int kBandRows = 16;
static_assert(kBandRows % kLanes == 0, "column groups tile a band");

/**
 * Launch thresholds: below them a kernel's work is too small to pay
 * for a launch, so it runs as one inline tile. On a 4-vCPU Xeon a
 * launch costs about 10 us of wake-up and hand-off, against about
 * 90 ns per lit vertex, 17 ns per projected lane group and 6-20 ns per
 * box pixel; the thresholds sit well above break-even because the band
 * tiles of one draw are rarely balanced. Lighting runs inline under
 * kMinParallelLightVertices vertices, projection under
 * kMinParallelXformGroups lane groups of vertices, the band raster
 * under kMinParallelBoxPixels pixels of summed triangle boxes.
 */
constexpr std::size_t kMinParallelLightVertices = 2048;
constexpr std::size_t kMinParallelXformGroups = 2048;
constexpr std::size_t kMinParallelBoxPixels = 16384;

/**
 * Rounding bound of a computed edge function. Every edge function of
 * the raster loop, and the area, has the form (p - q) * e - (r - s) * f
 * with rounded differences, products and sum, so its error is at most
 * gamma_4 = 4u / (1 - 4u) times |(p - q) e| + |(r - s) f| (u = 2^-53,
 * Higham). kEdgeErr = 16u is at least twice gamma_4: the spare factor
 * covers the rounding of the bound's own arithmetic.
 */
constexpr double kEdgeErr = 0x1p-49;

/** Absolute slack of the clip, in px: it covers the rounding of
 *  min - 0.5 - d for coordinates within kClipCoordLimit. */
constexpr double kClipSlack = 0x1p-20;

/** Largest |coordinate| the clip is applied to (no product overflows
 *  and every pixel centre is exact far below it). */
constexpr double kClipCoordLimit = 0x1p24;

/**
 * Pixel boxes of 4 triangles (lanes) with bounds [minx, maxx] x
 * [miny, maxy] and doubled area @p area (1 / area: @p inv_area),
 * clamped in double to the @p w x @p h screen, so the int conversion
 * never overflows (NaN reads as the lower clamp).
 *
 * The box is the pixel centres within [min - d, max + d] where that
 * clip is exact, else the bounding box [floor(min), ceil(max)]. Let W,
 * H be the bounds' extent. A centre tested by the bounding-box walk
 * lies within W + 1.5 (H + 1.5) of every vertex, so each computed edge
 * function errs by at most E / 2, E = kEdgeErr * (2 W H + 1.5 (W + H)).
 * A point more than d left of the bounds has a barycentric weight
 * below -d / (2 W) (the weights sum to 1 and each moves x by at most
 * W), so one exact edge function is below -A d / (2 W) for the exact
 * doubled area A. With A >= area / 2 (the area errs by at most
 * kEdgeErr W H), any d >= 4 W E / area > 2 W (E / 2) / A makes that
 * computed edge function negative, so the centre fails the coverage
 * test anyway. Slivers (area error above half the area), margins of
 * 0.5 px or more and coordinates beyond kClipCoordLimit are not proven
 * and keep the bounding box.
 */
void
pixelBoxes(VecD4 minx, VecD4 maxx, VecD4 miny, VecD4 maxy, VecD4 area,
           VecD4 inv_area, int w, int h, VecD4 (&box)[4])
{
    const VecD4 zero = VecD4::zero();
    const VecD4 half = VecD4::broadcast(0.5);
    const VecD4 edge_err = VecD4::broadcast(kEdgeErr);
    const VecD4 wx = maxx - minx;
    const VecD4 wy = maxy - miny;
    const VecD4 err =
        edge_err * (VecD4::broadcast(2.0) * wx * wy +
                    VecD4::broadcast(1.5) * (wx + wy));
    const VecD4 scale = VecD4::broadcast(4.0) * err * inv_area;
    const VecD4 slack = VecD4::broadcast(kClipSlack);
    const VecD4 dx = wx * scale + slack;
    const VecD4 dy = wy * scale + slack;
    const VecD4 extent =
        vmax(vmax(zero - minx, maxx), vmax(zero - miny, maxy));
    const VecD4 exact = bitAnd(
        bitAnd(cmpGE(half * area, edge_err * wx * wy), cmpLT(dx, half)),
        bitAnd(cmpLT(dy, half),
               cmpGE(VecD4::broadcast(kClipCoordLimit), extent)));
    // vmax(v, lo) is v > lo ? v : lo, so NaN clamps to lo.
    const auto clamp = [](VecD4 v, double lo, double hi) {
        return vmin(vmax(v, VecD4::broadcast(lo)), VecD4::broadcast(hi));
    };
    box[0] = clamp(select(exact, vceil(minx - half - dx), vfloor(minx)),
                   0.0, w);
    box[1] = clamp(select(exact, vfloor(maxx - half + dx), vceil(maxx)),
                   -1.0, w - 1);
    box[2] = clamp(select(exact, vceil(miny - half - dy), vfloor(miny)),
                   0.0, h);
    box[3] = clamp(select(exact, vfloor(maxy - half + dy), vceil(maxy)),
                   -1.0, h - 1);
}

/** Colour and depth planes a band writes (row-major, @p width px). */
struct FragmentTarget
{
    float *depth, *r, *g, *b;
    std::size_t width;
};

/** Lane broadcasts of one triangle for shadeGouraud(). */
struct GouraudTriangle
{
    VecD4 inv_area;
    VecD4 z[3], inv_w[3]; ///< Per vertex: NDC depth and 1 / clip w.
    VecD4 rgb[3][3];      ///< [channel][vertex] lit colour.
};

/**
 * Depth-test and Gouraud-shade the @p covered lanes (mask and its
 * bits) of one 4-pixel group, lane l being pixel idx + l * stride,
 * from the raw edge functions @p w0..w2. Each lane performs the scalar
 * pixel body's operations in its order (interpolated depth, depth
 * range and z-buffer test, perspective weights, colour, clamp), so the
 * stored pixels are bit-identical to it. A @p whole group's 4 pixels
 * all belong to the calling band, so all 4 are read, and a whole row
 * group is written as one (failing lanes write back their own value).
 * Otherwise only covered pixels are touched. Returns the fragments
 * written.
 */
unsigned
shadeGouraud(const FragmentTarget &t, const GouraudTriangle &tri,
             VecD4 w0, VecD4 w1, VecD4 w2, VecD4 covered, unsigned bits,
             std::size_t idx, std::size_t stride, bool whole)
{
    const auto read = [&](const float *plane) {
        if (stride == 1)
            return simd::widenLoad(plane + idx);
        return setLanes(plane[idx], plane[idx + stride],
                        plane[idx + 2 * stride], plane[idx + 3 * stride]);
    };
    w0 = w0 * tri.inv_area;
    w1 = w1 * tri.inv_area;
    w2 = w2 * tri.inv_area;
    const VecD4 z = w0 * tri.z[0] + w1 * tri.z[1] + w2 * tri.z[2];
    VecD4 stored;
    if (whole) {
        stored = read(t.depth);
    } else {
        double lanes[kLanes] = {};
        for (unsigned m = bits; m != 0; m &= m - 1) {
            const unsigned l = std::countr_zero(m);
            lanes[l] = t.depth[idx + l * stride];
        }
        stored = VecD4::load(lanes);
    }
    const VecD4 one = VecD4::broadcast(1.0);
    const VecD4 pass = andNot(
        bitOr(bitOr(cmpLT(z, VecD4::broadcast(-1.0)), cmpGT(z, one)),
              cmpGE(z, stored)),
        covered);
    const unsigned pass_bits = static_cast<unsigned>(maskBits(pass));
    if (pass_bits == 0)
        return 0;

    // Perspective-correct interpolation weights.
    const VecD4 wa = w0 * tri.inv_w[0];
    const VecD4 wb = w1 * tri.inv_w[1];
    const VecD4 wc = w2 * tri.inv_w[2];
    const VecD4 iw = wa + wb + wc;
    const VecD4 pa = wa / iw;
    const VecD4 pb = wb / iw;
    const VecD4 pc = wc / iw;
    // std::clamp(v, 0, 1) is vmin(1, vmax(0, v)): both keep v on NaN
    // and -0.
    const VecD4 zero = VecD4::zero();
    VecD4 out[4]; // depth, r, g, b
    out[0] = z;
    for (int ch = 0; ch < 3; ++ch)
        out[ch + 1] =
            vmin(one, vmax(zero, tri.rgb[ch][0] * pa + tri.rgb[ch][1] * pb +
                                     tri.rgb[ch][2] * pc));
    float *const planes[4] = {t.depth, t.r, t.g, t.b};
    if (whole && stride == 1) {
        for (int k = 0; k < 4; ++k)
            narrowStore4(select(pass, out[k],
                                k == 0 ? stored : read(planes[k])),
                         planes[k] + idx);
    } else {
        float lanes[4][kLanes];
        for (int k = 0; k < 4; ++k)
            narrowStore4(out[k], lanes[k]);
        for (unsigned m = pass_bits; m != 0; m &= m - 1) {
            const unsigned l = std::countr_zero(m);
            for (int k = 0; k < 4; ++k)
                planes[k][idx + l * stride] = lanes[k][l];
        }
    }
    return static_cast<unsigned>(std::popcount(pass_bits));
}

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
    parallelFor("raster_light", 0, n,
                n < kMinParallelLightVertices ? n : 64,
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
    const std::size_t groups = padded / kLanes;
    parallelFor("raster_xform", 0, groups,
                groups < kMinParallelXformGroups ? groups : 16,
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

    // --- Triangle setup (serial), 4 triangles per lane group:
    // backface cull, screen reject and pixel box. Set-up triangles are
    // recorded in submission order. ---
    const std::size_t triangles = mesh.indices.size() / 3;
    std::size_t set_up = 0;
    std::size_t box_pixels = 0;
    const VecD4 zero = VecD4::zero();
    const VecD4 one = VecD4::broadcast(1.0);
    const VecD4 minus_one = VecD4::broadcast(-1.0);
    for (std::size_t t0 = 0; t0 < triangles; t0 += kLanes) {
        // Lanes past the last triangle repeat the group's first one
        // and never count.
        const std::size_t n = std::min(kLanes, triangles - t0);
        const std::uint32_t *tri[kLanes];
        unsigned live = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
            tri[l] = &mesh.indices[3 * (t0 + (l < n ? l : 0))];
            live |= static_cast<unsigned>(valid_[tri[l][0]] &
                                          valid_[tri[l][1]] &
                                          valid_[tri[l][2]])
                    << l;
        }
        live &= (1u << n) - 1;
        const auto vertexLanes = [&](int v, double ProjectedVertex::*c) {
            return setLanes(projected_[tri[0][v]].*c,
                            projected_[tri[1][v]].*c,
                            projected_[tri[2][v]].*c,
                            projected_[tri[3][v]].*c);
        };
        const VecD4 ax = vertexLanes(0, &ProjectedVertex::sx);
        const VecD4 ay = vertexLanes(0, &ProjectedVertex::sy);
        const VecD4 bx = vertexLanes(1, &ProjectedVertex::sx);
        const VecD4 by = vertexLanes(1, &ProjectedVertex::sy);
        const VecD4 cx = vertexLanes(2, &ProjectedVertex::sx);
        const VecD4 cy = vertexLanes(2, &ProjectedVertex::sy);
        // edgeFunction(a, b, c) and std::min / std::max({a, b, c}).
        const VecD4 area = (cx - ax) * (by - ay) - (cy - ay) * (bx - ax);
        const VecD4 minx = vmin(cx, vmin(bx, ax));
        const VecD4 maxx = vmax(cx, vmax(bx, ax));
        const VecD4 miny = vmin(cy, vmin(by, ay));
        const VecD4 maxy = vmax(cy, vmax(by, ay));
        // Front faces (CCW: not area <= 0) whose bounding box
        // [floor(min), ceil(max)] meets the screen count as rasterized.
        const VecD4 on_screen =
            bitAnd(bitAnd(cmpLT(minx, VecD4::broadcast(w)),
                          cmpGT(maxx, minus_one)),
                   bitAnd(cmpLT(miny, VecD4::broadcast(h)),
                          cmpGT(maxy, minus_one)));
        const unsigned counted =
            live & static_cast<unsigned>(maskBits(
                       andNot(cmpGE(zero, area), on_screen)));
        if (counted == 0)
            continue;
        stats_.triangles_rasterized +=
            static_cast<std::size_t>(std::popcount(counted));
        const VecD4 inv_area = one / area;
        VecD4 box[4];
        pixelBoxes(minx, maxx, miny, maxy, area, inv_area, w, h, box);
        // Boxes without a pixel centre that can be covered are dropped.
        const unsigned drawn =
            counted & ~static_cast<unsigned>(maskBits(bitOr(
                          cmpGT(box[0], box[1]), cmpGT(box[2], box[3]))));
        if (drawn == 0)
            continue;
        double lanes[5][kLanes];
        for (int k = 0; k < 4; ++k)
            box[k].store(lanes[k]);
        inv_area.store(lanes[4]);
        // Branch-free compaction: every lane is written at the end of
        // the list, and only drawn ones advance it.
        if (tris_.size() < set_up + kLanes)
            tris_.resize(std::max(2 * tris_.size(), set_up + kLanes));
        for (std::size_t l = 0; l < kLanes; ++l) {
            const int x0 = static_cast<int>(lanes[0][l]);
            const int x1 = static_cast<int>(lanes[1][l]);
            const int y0 = static_cast<int>(lanes[2][l]);
            const int y1 = static_cast<int>(lanes[3][l]);
            tris_[set_up] = {tri[l][0], tri[l][1], tri[l][2], lanes[4][l],
                             x0, x1, y0, y1, y1 - y0 > x1 - x0};
            const std::size_t keep = (drawn >> l) & 1u;
            box_pixels += keep * static_cast<std::size_t>(x1 - x0 + 1) *
                          static_cast<std::size_t>(y1 - y0 + 1);
            set_up += keep;
        }
    }
    if (set_up == 0)
        return;

    // --- Bin triangles into horizontal tile bands (serial, so each
    // band sees its triangles in submission order). ---
    const std::size_t bands =
        (static_cast<std::size_t>(h) + kBandRows - 1) / kBandRows;
    bins_.resize(bands);
    for (std::vector<std::uint32_t> &bin : bins_)
        bin.clear();
    for (std::size_t i = 0; i < set_up; ++i) {
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
    const FragmentTarget target{depth_.data(), color_.r.data(),
                                color_.g.data(), color_.b.data(),
                                static_cast<std::size_t>(w)};

    // --- Rasterize bands in parallel. Every pixel belongs to exactly
    // one band and each band replays its triangles in submission
    // order, so the depth-test sequence per pixel is identical to the
    // serial rasterizer. Fragment counts combine in band order. A draw
    // too small to pay for a launch runs as one inline tile. ---
    const VecD4 centers4 = VecD4::load(kPixelCenters);
    const VecD4 lane_index = VecD4::load(kLaneIndex);
    std::vector<std::size_t> band_frags(bands, 0);
    parallelFor("raster_tiles", 0, bands,
                box_pixels < kMinParallelBoxPixels ? bands : 1,
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
            const double ax = a.sx, ay = a.sy, bx = b.sx, by = b.sy,
                         cx = c.sx, cy = c.sy;
            const double inv_area = s.inv_area;
            // Edge functions w_k = (sx - px_k) * ey_k - (sy - py_k) *
            // ex_k, with the per-triangle differences and the per-row
            // (or per-column) products hoisted out of the pixel loop
            // (same operations, same order).
            const double e0x = cx - bx, e0y = cy - by;
            const double e1x = ax - cx, e1y = ay - cy;
            const double e2x = bx - ax, e2y = by - ay;
            const int y0 = std::max(s.y0, band_y0);
            const int y1 = std::min(s.y1, band_y1);

            // Per-pixel (Phong-style) shading of one covered pixel; the
            // w's are the raw edge functions.
            const auto shadePixel = [&](int px, int py, double w0,
                                        double w1, double w2) {
                w0 *= inv_area;
                w1 *= inv_area;
                w2 *= inv_area;

                const double z = w0 * a.z + w1 * b.z + w2 * c.z;
                if (z < -1.0 || z > 1.0)
                    return;
                if (z >= depth_.at(px, py))
                    return;

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
                const Vec3 n = (lit.normal[s.ia] * pa +
                                lit.normal[s.ib] * pb +
                                lit.normal[s.ic] * pc)
                                   .normalized();
                const Vec3 world = lit.world[s.ia] * pa +
                                   lit.world[s.ib] * pb +
                                   lit.world[s.ic] * pc;
                const double diffuse =
                    std::max(0.0, n.dot(light_dir)) * light.intensity;
                const Vec3 view_dir = (eye - world).normalized();
                const Vec3 half_vec = (view_dir + light_dir).normalized();
                const double spec =
                    0.6 * std::pow(std::max(0.0, n.dot(half_vec)), 24.0);
                const Vec3 rgb = base * (light.ambient + diffuse) +
                                 Vec3(spec, spec, spec);
                depth_.at(px, py) = static_cast<float>(z);
                color_.setPixel(px, py,
                                Vec3(std::clamp(rgb.x, 0.0, 1.0),
                                     std::clamp(rgb.y, 0.0, 1.0),
                                     std::clamp(rgb.z, 0.0, 1.0)));
                ++frags;
            };
            GouraudTriangle tri;
            if (gouraud) {
                tri.inv_area = VecD4::broadcast(inv_area);
                tri.z[0] = VecD4::broadcast(a.z);
                tri.z[1] = VecD4::broadcast(b.z);
                tri.z[2] = VecD4::broadcast(c.z);
                tri.inv_w[0] = VecD4::broadcast(a.inv_w);
                tri.inv_w[1] = VecD4::broadcast(b.inv_w);
                tri.inv_w[2] = VecD4::broadcast(c.inv_w);
                const Vec3 *rgb[3] = {&lit.color[s.ia], &lit.color[s.ib],
                                      &lit.color[s.ic]};
                for (int v = 0; v < 3; ++v) {
                    tri.rgb[0][v] = VecD4::broadcast(rgb[v]->x);
                    tri.rgb[1][v] = VecD4::broadcast(rgb[v]->y);
                    tri.rgb[2][v] = VecD4::broadcast(rgb[v]->z);
                }
            }
            // Coverage of one group of 4 pixels along the box's longer
            // side, lane l being pixel (px + l * dx, py + l * dy): one
            // outside mask of the edge functions (any w < 0, exactly
            // the scalar rejection, NaN included), clipped to the first
            // @p lanes lanes (the box), then the covered lanes shaded.
            // @p whole: all 4 pixels lie in this band's framebuffer rows.
            const auto shade = [&](VecD4 w0, VecD4 w1, VecD4 w2, int lanes,
                                   int px, int py, int dx, int dy,
                                   bool whole) {
                const VecD4 covered = andNot(
                    bitOr(bitOr(cmpLT(w0, zero), cmpLT(w1, zero)),
                          cmpLT(w2, zero)),
                    cmpLT(lane_index, VecD4::broadcast(lanes)));
                unsigned bits = static_cast<unsigned>(maskBits(covered));
                if (bits == 0)
                    return;
                if (gouraud) {
                    frags += shadeGouraud(
                        target, tri, w0, w1, w2, covered, bits,
                        static_cast<std::size_t>(py) * target.width +
                            static_cast<std::size_t>(px),
                        dy != 0 ? target.width : 1, whole);
                    return;
                }
                double l0[kLanes], l1[kLanes], l2[kLanes];
                w0.store(l0);
                w1.store(l1);
                w2.store(l2);
                for (; bits != 0; bits &= bits - 1) {
                    const int l = std::countr_zero(bits);
                    shadePixel(px + l * dx, py + l * dy, l0[l], l1[l],
                               l2[l]);
                }
            };
            if (!s.tall) {
                const VecD4 bx4 = VecD4::broadcast(bx);
                const VecD4 cx4 = VecD4::broadcast(cx);
                const VecD4 ax4 = VecD4::broadcast(ax);
                const VecD4 e0y4 = VecD4::broadcast(e0y);
                const VecD4 e1y4 = VecD4::broadcast(e1y);
                const VecD4 e2y4 = VecD4::broadcast(e2y);
                for (int py = y0; py <= y1; ++py) {
                    const double sy = py + 0.5;
                    const VecD4 r0 = VecD4::broadcast((sy - by) * e0x);
                    const VecD4 r1 = VecD4::broadcast((sy - cy) * e1x);
                    const VecD4 r2 = VecD4::broadcast((sy - ay) * e2x);
                    for (int px4 = s.x0; px4 <= s.x1;
                         px4 += static_cast<int>(kLanes)) {
                        const VecD4 sx4 = VecD4::broadcast(px4) + centers4;
                        const VecD4 w0 = (sx4 - bx4) * e0y4 - r0;
                        const VecD4 w1 = (sx4 - cx4) * e1y4 - r1;
                        const VecD4 w2 = (sx4 - ax4) * e2y4 - r2;
                        shade(w0, w1, w2, s.x1 - px4 + 1, px4, py, 1, 0,
                              px4 + static_cast<int>(kLanes) <= w);
                    }
                }
            } else {
                // Column walk: the per-row products of the band's rows,
                // 4 rows per lane group, are shared by every column.
                const int groups =
                    (y1 - y0) / static_cast<int>(kLanes) + 1;
                VecD4 r0[kBandRows / kLanes], r1[kBandRows / kLanes],
                    r2[kBandRows / kLanes];
                for (int g = 0; g < groups; ++g) {
                    const VecD4 sy4 =
                        VecD4::broadcast(y0 + g * static_cast<int>(kLanes)) +
                        centers4;
                    r0[g] = (sy4 - VecD4::broadcast(by)) *
                            VecD4::broadcast(e0x);
                    r1[g] = (sy4 - VecD4::broadcast(cy)) *
                            VecD4::broadcast(e1x);
                    r2[g] = (sy4 - VecD4::broadcast(ay)) *
                            VecD4::broadcast(e2x);
                }
                for (int px = s.x0; px <= s.x1; ++px) {
                    const double sx = px + 0.5;
                    const VecD4 c0 = VecD4::broadcast((sx - bx) * e0y);
                    const VecD4 c1 = VecD4::broadcast((sx - cx) * e1y);
                    const VecD4 c2 = VecD4::broadcast((sx - ax) * e2y);
                    for (int g = 0; g < groups; ++g) {
                        const int py4 = y0 + g * static_cast<int>(kLanes);
                        const VecD4 w0 = c0 - r0[g];
                        const VecD4 w1 = c1 - r1[g];
                        const VecD4 w2 = c2 - r2[g];
                        shade(w0, w1, w2, y1 - py4 + 1, px, py4, 0, 1,
                              py4 + static_cast<int>(kLanes) <= y1 + 1);
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
