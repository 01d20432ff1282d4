/**
 * @file
 * Unit tests for meshes, the software rasterizer, scenes, and the
 * application driver.
 */

#include "foundation/rng.hpp"
#include "render/app.hpp"
#include "render/mesh.hpp"
#include "render/rasterizer.hpp"
#include "render/scenes.hpp"
#include "sensors/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace illixr {
namespace {

TEST(MeshTest, BoxHasTwelveTriangles)
{
    const Mesh box = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    EXPECT_EQ(box.triangleCount(), 12u);
    EXPECT_EQ(box.vertices.size(), 24u);
    Vec3 lo, hi;
    box.bounds(lo, hi);
    EXPECT_NEAR(lo.x, -1.0, 1e-12);
    EXPECT_NEAR(hi.z, 1.0, 1e-12);
}

TEST(MeshTest, SphereNormalsAreRadial)
{
    const Mesh sphere = makeSphere(2.0, 8, 12, Vec3(1, 1, 1));
    for (const Vertex &v : sphere.vertices) {
        EXPECT_NEAR(v.position.norm(), 2.0, 1e-9);
        EXPECT_NEAR(v.normal.dot(v.position.normalized()), 1.0, 1e-9);
    }
}

TEST(MeshTest, AppendRebasesIndices)
{
    Mesh a = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    const Mesh b = makeBox(Vec3(2, 2, 2), Vec3(0, 1, 0));
    const std::size_t verts_a = a.vertices.size();
    a.append(b);
    EXPECT_EQ(a.triangleCount(), 24u);
    // Second half of the indices must refer past the first mesh.
    for (std::size_t i = 36; i < a.indices.size(); ++i)
        EXPECT_GE(a.indices[i], verts_a);
}

TEST(MeshTest, TransformMovesBounds)
{
    Mesh box = makeBox(Vec3(1, 1, 1), Vec3(1, 0, 0));
    box.transform(Mat4::translation(Vec3(10, 0, 0)));
    Vec3 lo, hi;
    box.bounds(lo, hi);
    EXPECT_NEAR(lo.x, 9.0, 1e-12);
    EXPECT_NEAR(hi.x, 11.0, 1e-12);
}

TEST(RasterizerTest, ClearFillsColorAndDepth)
{
    Rasterizer r(16, 16);
    r.clear(Vec3(0.2, 0.4, 0.6));
    EXPECT_NEAR(r.color().pixel(5, 5).y, 0.4, 1e-6);
    EXPECT_GT(r.depth().at(5, 5), 1e20f);
}

TEST(RasterizerTest, BoxInFrontOfCameraIsVisible)
{
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh box = makeBox(Vec3(0.5, 0.5, 0.5), Vec3(1.0, 0.2, 0.2));
    const Mat4 model = Mat4::translation(Vec3(0, 0, -3));
    const Mat4 view = Mat4::identity();
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    r.draw(box, model, view, proj, DirectionalLight{});

    // Center pixel shows the lit red box face.
    const Vec3 c = r.color().pixel(32, 32);
    EXPECT_GT(c.x, 0.2);
    EXPECT_GT(c.x, c.y * 2.0);
    EXPECT_GT(r.stats().fragments_shaded, 100u);
    EXPECT_LT(r.depth().at(32, 32), 1.0f);
    // Corners show background.
    EXPECT_NEAR(r.color().pixel(1, 1).x, 0.0, 1e-6);
}

TEST(RasterizerTest, DepthTestOrdersOverlappingBoxes)
{
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh red = makeBox(Vec3(0.5, 0.5, 0.1), Vec3(1, 0, 0));
    const Mesh green = makeBox(Vec3(0.5, 0.5, 0.1), Vec3(0, 1, 0));
    const Mat4 view = Mat4::identity();
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    // Draw far green first, then near red: red must win. Then redraw
    // green (farther): red must still win.
    r.draw(green, Mat4::translation(Vec3(0, 0, -5)), view, proj,
           DirectionalLight{});
    r.draw(red, Mat4::translation(Vec3(0, 0, -3)), view, proj,
           DirectionalLight{});
    r.draw(green, Mat4::translation(Vec3(0, 0, -5)), view, proj,
           DirectionalLight{});
    const Vec3 c = r.color().pixel(32, 32);
    EXPECT_GT(c.x, c.y);
}

TEST(RasterizerTest, BehindCameraIsCulled)
{
    Rasterizer r(32, 32);
    r.clear(Vec3(0, 0, 0));
    const Mesh box = makeBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1));
    r.draw(box, Mat4::translation(Vec3(0, 0, 5)), Mat4::identity(),
           Mat4::perspective(1.2, 1.0, 0.1, 50.0), DirectionalLight{});
    EXPECT_EQ(r.stats().fragments_shaded, 0u);
}

TEST(RasterizerTest, GouraudLightingDependsOnNormal)
{
    // A sphere lit from above: top brighter than bottom.
    Rasterizer r(64, 64);
    r.clear(Vec3(0, 0, 0));
    const Mesh sphere = makeSphere(1.0, 24, 32, Vec3(0.8, 0.8, 0.8));
    DirectionalLight light;
    light.direction = Vec3(0, 1, 0);
    r.draw(sphere, Mat4::translation(Vec3(0, 0, -3)), Mat4::identity(),
           Mat4::perspective(1.2, 1.0, 0.1, 50.0), light);
    const double top = r.color().pixel(32, 18).x;
    const double bottom = r.color().pixel(32, 46).x;
    EXPECT_GT(top, bottom + 0.1);
}

/** Unit vector drawn uniformly from the sphere. */
Vec3
randomDirection(Rng &rng)
{
    for (;;) {
        const Vec3 v(rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1));
        const double n = v.norm();
        if (n > 0.1 && n <= 1.0)
            return v / n;
    }
}

/** Look-at view whose up vector is never parallel to @p dir. */
Mat4
viewAlong(const Vec3 &eye, const Vec3 &dir)
{
    const Vec3 up = std::fabs(dir.y) < 0.9 ? Vec3(0, 1, 0) : Vec3(1, 0, 0);
    return Mat4::lookAt(eye, eye + dir, up);
}

TEST(RasterizerTest, WholeObjectRejectIsSound)
{
    // Random views: anywhere, looking away, standing inside the
    // object, and with the object straddling the eye plane. Whenever
    // the reject fires, brute-force projection must show that every
    // vertex is behind the eye (w <= 1e-6) or more than 1 px beyond
    // one and the same screen edge.
    const Vec3 white(1, 1, 1);
    const Mesh meshes[] = {
        makeSphere(0.8, 10, 14, white),
        makeBox(Vec3(0.3, 1.2, 2.0), white),
        makeCylinder(0.35, 3.2, 24, white),
        makeTorus(0.85, 0.14, 24, 8, white),
        makePlane(16.0, 10.0, 6, white, white),
    };
    Rng rng(2024);
    int fired = 0, kept = 0, straddling_fired = 0;
    for (int trial = 0; trial < 6000; ++trial) {
        const Mesh &mesh = meshes[trial % 5];
        const int width = 32 + 16 * static_cast<int>(rng.uniformInt(7));
        const int height = 32 + 16 * static_cast<int>(rng.uniformInt(7));
        const Mat4 proj = Mat4::perspective(
            1.5, static_cast<double>(width) / height, 0.1, 60.0);
        const Mat4 model =
            Mat4::translation(Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3),
                                   rng.uniform(-3, 3))) *
            Mat4::fromRotation(Quat::fromAxisAngle(randomDirection(rng),
                                                   rng.uniform(0, 6.3))
                                   .toMatrix()) *
            Mat4::scale(Vec3(rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                             rng.uniform(0.5, 2)));
        LitMesh lit;
        lightMesh(mesh, model, DirectionalLight{}, ShadingModel::Gouraud,
                  lit);
        for (const Vertex &v : mesh.vertices)
            ASSERT_LE((v.position - lit.bound_center).norm(),
                      lit.bound_radius);

        const Vec3 center = model.transformPoint(lit.bound_center);
        Vec3 eye, dir;
        switch ((trial / 5) % 4) {
          case 0: // Anywhere, any direction.
            eye = center + randomDirection(rng) * rng.uniform(0, 12);
            dir = randomDirection(rng);
            break;
          case 1: // Looking away from the object.
            eye = center + randomDirection(rng) * rng.uniform(0.5, 8);
            dir = (eye - center).normalized();
            break;
          case 2: // Standing inside it.
            eye = center + randomDirection(rng) * rng.uniform(0, 0.3);
            dir = randomDirection(rng);
            break;
          default: { // Centre near the eye plane, off to one side.
            const Vec3 side = randomDirection(rng);
            eye = center + side * rng.uniform(0.5, 10);
            dir = side.cross(randomDirection(rng)).normalized();
            eye = eye + dir * rng.uniform(-0.3, 0.3);
            break;
          }
        }
        const Mat4 mvp = proj * (viewAlong(eye, dir) * model);
        if (!sphereOutsideView(lit.bound_center, lit.bound_radius, mvp,
                               width, height)) {
            ++kept;
            continue;
        }
        ++fired;

        // Brute force: which edges is every visible vertex beyond?
        bool all_left = true, all_right = true, all_top = true,
             all_bottom = true, any_behind = false, any_front = false;
        for (const Vertex &v : mesh.vertices) {
            const Vec4 clip = mvp * Vec4(v.position, 1.0);
            (clip.w <= 0.0 ? any_behind : any_front) = true;
            if (clip.w <= 1e-6)
                continue;
            const double inv_w = 1.0 / clip.w;
            const double sx = (clip.x * inv_w + 1.0) * (width / 2.0);
            const double sy = (1.0 - clip.y * inv_w) * (height / 2.0);
            all_left = all_left && sx < -1.0;
            all_right = all_right && sx > width + 1.0;
            all_top = all_top && sy < -1.0;
            all_bottom = all_bottom && sy > height + 1.0;
        }
        EXPECT_TRUE(all_left || all_right || all_top || all_bottom)
            << "trial " << trial << ": a vertex may reach the screen";
        if (any_behind && any_front)
            ++straddling_fired;
    }
    // Non-vacuous: both outcomes occur, including rejects of objects
    // whose vertices lie on both sides of the eye plane.
    EXPECT_GT(fired, 500);
    EXPECT_GT(kept, 500);
    EXPECT_GT(straddling_fired, 20);
}

TEST(RasterizerTest, RejectKeepsObjectsBeyondNearAndFarPlanes)
{
    // Near/far are not reject planes: triangles there still count as
    // rasterized (their fragments fail the per-pixel depth range).
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    const Mesh box = makeBox(Vec3(0.5, 0.5, 0.5), Vec3(1, 1, 1));
    const Mat4 far_model = Mat4::translation(Vec3(0, 0, -80));
    const Mesh tiny = makeBox(Vec3(0.01, 0.01, 0.01), Vec3(1, 1, 1));
    const Mat4 near_model = Mat4::translation(Vec3(0, 0, -0.05));
    for (const auto &[mesh, model] :
         {std::pair<const Mesh *, Mat4>{&box, far_model},
          std::pair<const Mesh *, Mat4>{&tiny, near_model}}) {
        LitMesh lit;
        lightMesh(*mesh, model, DirectionalLight{}, ShadingModel::Gouraud,
                  lit);
        EXPECT_FALSE(sphereOutsideView(lit.bound_center, lit.bound_radius,
                                       proj * model, 32, 32));
        Rasterizer r(32, 32);
        r.clear(Vec3(0, 0, 0));
        r.draw(*mesh, lit, Mat4::identity(), proj);
        EXPECT_GT(r.stats().triangles_rasterized, 0u);
        EXPECT_EQ(r.stats().fragments_shaded, 0u);
    }
}

TEST(SceneTest, ComplexityOrderingMatchesPaper)
{
    // Sponza most graphics-intensive, AR demo least (paper §III-C).
    const Scene sponza(AppId::Sponza);
    const Scene materials(AppId::Materials);
    const Scene platformer(AppId::Platformer);
    const Scene ar(AppId::ArDemo);
    EXPECT_GT(sponza.triangleCount(), materials.triangleCount());
    EXPECT_GT(materials.triangleCount(), platformer.triangleCount());
    EXPECT_GT(platformer.triangleCount(), ar.triangleCount());
    EXPECT_GT(sponza.triangleCount(), 10000u);
    EXPECT_LT(ar.triangleCount(), 1000u);
}

TEST(SceneTest, AnimationMovesObjects)
{
    Scene scene(AppId::Platformer);
    scene.update(0.0);
    // Find an animated object.
    std::size_t animated = 0;
    for (std::size_t i = 0; i < scene.objects().size(); ++i) {
        if (scene.objects()[i].motion != SceneObject::Motion::Static) {
            animated = i;
            break;
        }
    }
    const Mat4 t0 = scene.objectTransform(animated);
    scene.update(0.37);
    const Mat4 t1 = scene.objectTransform(animated);
    const Vec3 p0(t0(0, 3), t0(1, 3), t0(2, 3));
    const Vec3 p1(t1(0, 3), t1(1, 3), t1(2, 3));
    EXPECT_GT((p1 - p0).norm(), 0.01);
}

TEST(AppTest, RendersStereoFrames)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::ArDemo, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.6, 0));
    const StereoFrame frame = app.renderFrame(head, 0.5);
    EXPECT_EQ(frame.left.width(), 64);
    EXPECT_EQ(frame.right.width(), 64);
    EXPECT_GT(app.stats().draw_calls, 0u);
    EXPECT_GT(app.profile().taskSeconds("rendering"), 0.0);
    EXPECT_GT(app.profile().taskSeconds("simulation"), 0.0);
}

TEST(AppTest, StereoEyesDiffer)
{
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    XrApplication app(AppId::Platformer, cfg);
    const Pose head(Quat::identity(), Vec3(0, 1.2, 4.0));
    const StereoFrame frame = app.renderFrame(head, 0.0);
    double diff = 0.0;
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            diff += std::fabs(frame.left.r.at(x, y) -
                              frame.right.r.at(x, y));
    EXPECT_GT(diff, 1.0) << "stereo parallax expected";
}

TEST(AppTest, RenderCostOrderingMatchesPaper)
{
    // Fragments shaded per frame should follow the complexity order.
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    const Pose head(Quat::identity(), Vec3(0, 1.6, 3.0));
    std::size_t shaded[4];
    const AppId apps[4] = {AppId::Sponza, AppId::Materials,
                           AppId::Platformer, AppId::ArDemo};
    for (int i = 0; i < 4; ++i) {
        XrApplication app(apps[i], cfg);
        app.renderFrame(head, 0.1);
        shaded[i] = app.stats().triangles_submitted;
    }
    EXPECT_GT(shaded[0], shaded[1]);
    EXPECT_GT(shaded[1], shaded[2]);
    EXPECT_GT(shaded[2], shaded[3]);
}

/** FNV-1a over the bytes of @p n floats. */
std::uint64_t
fnv1a(std::uint64_t h, const float *data, std::size_t n)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n * sizeof(float); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
digestImage(std::uint64_t h, const RgbImage &img)
{
    const std::size_t n = static_cast<std::size_t>(img.width()) *
                          static_cast<std::size_t>(img.height());
    h = fnv1a(h, img.r.data(), n);
    h = fnv1a(h, img.g.data(), n);
    return fnv1a(h, img.b.data(), n);
}

std::uint64_t
digestStats(std::uint64_t h, const RasterStats &s)
{
    h = fnv1a(h, s.triangles_submitted);
    h = fnv1a(h, s.triangles_rasterized);
    h = fnv1a(h, s.fragments_shaded);
    return fnv1a(h, s.draw_calls);
}

bool
sameImage(const RgbImage &a, const RgbImage &b)
{
    const std::size_t n = static_cast<std::size_t>(a.width()) *
                          static_cast<std::size_t>(a.height());
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.r.data(), b.r.data(), n * sizeof(float)) == 0 &&
           std::memcmp(a.g.data(), b.g.data(), n * sizeof(float)) == 0 &&
           std::memcmp(a.b.data(), b.b.data(), n * sizeof(float)) == 0;
}

TEST(RasterizerTest, FarOffScreenVertexKeepsTheTriangle)
{
    // A vertex at w = 2e-6 projects to x ~ 3e9 px, beyond int's range:
    // the pixel box clamps in double before converting, so the part of
    // the triangle on screen is still rasterized.
    const Mat4 proj = Mat4::perspective(1.2, 1.0, 0.1, 50.0);
    for (const double x : {1.0, 100.0}) {
        Mesh tri;
        tri.vertices.resize(3);
        tri.vertices[0].position = Vec3(x, 0, -2e-6);
        tri.vertices[1].position = Vec3(-1, -1, -2);
        tri.vertices[2].position = Vec3(1, -1, -2);
        for (Vertex &v : tri.vertices)
            v.normal = Vec3(0, 0, 1);
        tri.indices = {0, 1, 2};
        Rasterizer r(80, 80);
        r.clear(Vec3(0, 0, 0));
        r.draw(tri, Mat4::identity(), Mat4::identity(), proj,
               DirectionalLight{});
        EXPECT_EQ(r.stats().triangles_rasterized, 1u) << "x = " << x;
    }
}

/**
 * Test-local rasterizer: the bounding-box walk that tests every pixel
 * centre of [floor(min), ceil(max)] on screen with the rasterizer's
 * edge functions (same operations, same order) and shades it with the
 * scalar Gouraud body. Screen coordinates come from identity model,
 * view and projection matrices, for which the rasterizer's projection
 * is sx = (x + 1) w / 2, sy = (1 - y) h / 2, z = z exactly.
 */
void
referenceDraw(const Mesh &mesh, const LitMesh &lit, RgbImage &color,
              ImageF &depth, RasterStats &stats)
{
    const int w = color.width();
    const int h = color.height();
    ++stats.draw_calls;
    stats.triangles_submitted += mesh.triangleCount();
    struct Screen
    {
        double sx, sy, z;
    };
    std::vector<Screen> v;
    for (const Vertex &vert : mesh.vertices) {
        // The projection's unfused 0 + m0 x + m1 y + m2 z + m3 rows.
        const Vec3 &p = vert.position;
        const double cx = 0.0 + 1.0 * p.x + 0.0 * p.y + 0.0 * p.z + 0.0;
        const double cy = 0.0 + 0.0 * p.x + 1.0 * p.y + 0.0 * p.z + 0.0;
        const double cz = 0.0 + 0.0 * p.x + 0.0 * p.y + 1.0 * p.z + 0.0;
        v.push_back({(cx + 1.0) * (w / 2.0), (1.0 - cy) * (h / 2.0), cz});
    }
    for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
        const std::uint32_t ia = mesh.indices[t];
        const std::uint32_t ib = mesh.indices[t + 1];
        const std::uint32_t ic = mesh.indices[t + 2];
        const Screen &a = v[ia], &b = v[ib], &c = v[ic];
        const double area = (c.sx - a.sx) * (b.sy - a.sy) -
                            (c.sy - a.sy) * (b.sx - a.sx);
        if (area <= 0.0)
            continue;
        const double x0 =
            std::max(0.0, std::floor(std::min({a.sx, b.sx, c.sx})));
        const double x1 =
            std::min(w - 1.0, std::ceil(std::max({a.sx, b.sx, c.sx})));
        const double y0 =
            std::max(0.0, std::floor(std::min({a.sy, b.sy, c.sy})));
        const double y1 =
            std::min(h - 1.0, std::ceil(std::max({a.sy, b.sy, c.sy})));
        if (x0 > x1 || y0 > y1)
            continue;
        ++stats.triangles_rasterized;
        const double inv_area = 1.0 / area;
        const double e0x = c.sx - b.sx, e0y = c.sy - b.sy;
        const double e1x = a.sx - c.sx, e1y = a.sy - c.sy;
        const double e2x = b.sx - a.sx, e2y = b.sy - a.sy;
        for (int py = 0; py < h; ++py) {
            for (int px = 0; px < w; ++px) {
                const double sx = px + 0.5, sy = py + 0.5;
                double w0 = (sx - b.sx) * e0y - (sy - b.sy) * e0x;
                double w1 = (sx - c.sx) * e1y - (sy - c.sy) * e1x;
                double w2 = (sx - a.sx) * e2y - (sy - a.sy) * e2x;
                if (w0 < 0 || w1 < 0 || w2 < 0 || px < x0 || px > x1 ||
                    py < y0 || py > y1)
                    continue;
                w0 *= inv_area;
                w1 *= inv_area;
                w2 *= inv_area;
                const double z = w0 * a.z + w1 * b.z + w2 * c.z;
                if (z < -1.0 || z > 1.0 || z >= depth.at(px, py))
                    continue;
                // inv_w is 1: the perspective weights are the w's.
                const double wa = w0 * 1.0, wb = w1 * 1.0, wc = w2 * 1.0;
                const double iw = wa + wb + wc;
                const Vec3 rgb = lit.color[ia] * (wa / iw) +
                                 lit.color[ib] * (wb / iw) +
                                 lit.color[ic] * (wc / iw);
                depth.at(px, py) = static_cast<float>(z);
                color.setPixel(px, py,
                               Vec3(std::clamp(rgb.x, 0.0, 1.0),
                                    std::clamp(rgb.y, 0.0, 1.0),
                                    std::clamp(rgb.z, 0.0, 1.0)));
                ++stats.fragments_shaded;
            }
        }
    }
}

TEST(RasterizerTest, PixelCentreClipMatchesFullFramebufferWalk)
{
    // Random, sliver, near-degenerate, on-centre and huge-coordinate
    // triangles at odd sizes: colour, depth and RasterStats must match
    // the bounding-box walk over the whole framebuffer bit for bit, so
    // no pixel centre the clip skips could have been covered.
    const int sizes[][2] = {{51, 51}, {37, 23}, {13, 61}, {32, 16},
                            {80, 80}};
    Rng rng(4242);
    int cases = 0;
    for (int scene = 0; scene < 300; ++scene) {
        const int w = sizes[scene % 5][0];
        const int h = sizes[scene % 5][1];
        const auto screenVertex = [&](double sx, double sy) {
            Vertex v;
            v.position = Vec3(sx / (w / 2.0) - 1.0, 1.0 - sy / (h / 2.0),
                              rng.uniform(-1.2, 1.2));
            v.normal = randomDirection(rng);
            v.color = Vec3(rng.uniform(), rng.uniform(), rng.uniform());
            return v;
        };
        const auto point = [&](double margin) {
            return Vec2(rng.uniform(-margin, w + margin),
                        rng.uniform(-margin, h + margin));
        };
        Mesh mesh;
        for (int t = 0; t < 30; ++t) {
            Vec2 p[3];
            switch (t % 5) {
              case 0: // Random, partly off screen.
                for (Vec2 &q : p)
                    q = point(8.0);
                break;
              case 1: { // Sliver: c within 1e-9..1e-2 px of segment ab.
                p[0] = point(2.0);
                p[1] = point(2.0);
                const double s = rng.uniform();
                const Vec2 d = p[1] - p[0];
                const double off =
                    std::pow(10.0, rng.uniform(-9.0, -2.0)) *
                    (rng.uniform() < 0.5 ? -1.0 : 1.0);
                p[2] = p[0] + d * s +
                       Vec2(-d.y, d.x) * (off / std::max(d.norm(), 1e-12));
                break;
              }
              case 2: { // Near-degenerate: three almost coincident points.
                const Vec2 c = point(1.0);
                const double r = std::pow(10.0, rng.uniform(-8.0, 0.0));
                for (Vec2 &q : p)
                    q = c + Vec2(rng.uniform(-r, r), rng.uniform(-r, r));
                break;
              }
              case 3: // On centres: vertices at exact pixel centres.
                for (Vec2 &q : p)
                    q = Vec2(static_cast<double>(rng.uniformInt(w)) + 0.5,
                             static_cast<double>(rng.uniformInt(h)) + 0.5);
                break;
              default: { // Huge coordinates: one or more far away.
                for (Vec2 &q : p)
                    q = point(2.0);
                const double far = std::pow(10.0, rng.uniform(6.0, 12.0));
                p[rng.uniformInt(3)] = Vec2(rng.uniform(-far, far),
                                            rng.uniform(-far, far));
                break;
              }
            }
            for (const Vec2 &q : p) {
                mesh.indices.push_back(
                    static_cast<std::uint32_t>(mesh.vertices.size()));
                mesh.vertices.push_back(screenVertex(q.x, q.y));
            }
            ++cases;
        }
        LitMesh lit;
        lightMesh(mesh, Mat4::identity(), DirectionalLight{},
                  ShadingModel::Gouraud, lit);
        Rasterizer r(w, h);
        r.clear(Vec3(0.1, 0.2, 0.3));
        r.draw(mesh, lit, Mat4::identity(), Mat4::identity());

        RgbImage color(w, h, Vec3(0.1, 0.2, 0.3));
        ImageF depth(w, h, 1e30f);
        RasterStats stats;
        referenceDraw(mesh, lit, color, depth, stats);
        ASSERT_TRUE(sameImage(r.color(), color)) << "scene " << scene;
        const std::size_t n = static_cast<std::size_t>(w) * h;
        ASSERT_EQ(std::memcmp(r.depth().data(), depth.data(),
                              n * sizeof(float)),
                  0)
            << "scene " << scene;
        ASSERT_EQ(digestStats(0, r.stats()), digestStats(0, stats))
            << "scene " << scene << ": rasterized "
            << r.stats().triangles_rasterized << " vs "
            << stats.triangles_rasterized << ", fragments "
            << r.stats().fragments_shaded << " vs "
            << stats.fragments_shaded;
    }
    EXPECT_EQ(cases, 9000);
}

constexpr int kGoldenFrames = 120;
constexpr double kGoldenFrameDt = 0.05; ///< 6 s of lab walk.

/** Head pose and app time of golden frame @p i. */
Pose
goldenHead(const Trajectory &traj, int i)
{
    return traj.pose(i * kGoldenFrameDt);
}

/**
 * Render the golden sequence: 120 lab-walk (seed 7) frames of @p app
 * at @p eye px, switching to @p eye + 32 px halfway through. Returns
 * an FNV-1a digest of every frame's colour channels and running
 * RasterStats.
 */
std::uint64_t
goldenDigest(AppId id, int eye)
{
    const Trajectory traj = Trajectory::labWalk(7);
    AppConfig cfg;
    cfg.eye_width = eye;
    cfg.eye_height = eye;
    XrApplication app(id, cfg);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < kGoldenFrames; ++i) {
        if (i == kGoldenFrames / 2)
            app.setEyeResolution(eye + 32);
        const StereoFrame f =
            app.renderFrame(goldenHead(traj, i), i * kGoldenFrameDt);
        h = digestImage(h, f.left);
        h = digestImage(h, f.right);
        h = digestStats(h, app.stats());
    }
    return h;
}

TEST(RenderTest, FramesMatchSeedDigests)
{
    // Digests of the original per-eye-lighting renderer. Caching and
    // culling are pure optimizations: every pixel and every
    // RasterStats field must stay bit-identical.
    struct Golden
    {
        AppId app;
        int eye;
        std::uint64_t digest;
    };
    const Golden golden[] = {
        {AppId::Sponza, 64, 0x80c89483b7bfef6dULL},
        {AppId::Sponza, 80, 0xd0a27101928914a3ULL},
        {AppId::Sponza, 51, 0xd6eaf72faaab6083ULL},
        {AppId::Materials, 64, 0xdadae9bc68f3f56aULL},
        {AppId::Materials, 80, 0x295a102e6a8db46aULL},
        {AppId::Materials, 51, 0xc042bb5b36daede0ULL},
        {AppId::Platformer, 64, 0xc32bfec77a06972aULL},
        {AppId::Platformer, 80, 0x86f95f9844119843ULL},
        {AppId::ArDemo, 64, 0x2de312932a7143bdULL},
        {AppId::ArDemo, 80, 0x01b524914fe733c8ULL},
    };
    for (const Golden &g : golden) {
        const std::uint64_t d = goldenDigest(g.app, g.eye);
        EXPECT_EQ(d, g.digest)
            << appName(g.app) << " @ " << g.eye << " px: got 0x"
            << std::hex << d;
    }
}

TEST(RenderTest, ColdAppMatchesWarmApp)
{
    // A fresh XrApplication per frame (nothing cached) must render the
    // same frames and per-frame stats as one reused instance, and so
    // must a copy or a moved-from copy taken mid-run.
    const Trajectory traj = Trajectory::labWalk(7);
    AppConfig cfg;
    cfg.eye_width = 64;
    cfg.eye_height = 64;
    for (const AppId id : {AppId::Platformer, AppId::Materials}) {
        XrApplication warm(id, cfg);
        XrApplication copied(id, cfg);
        RasterStats prev;
        for (int i = 0; i < 40; ++i) {
            const Pose head = goldenHead(traj, i);
            const double t = i * kGoldenFrameDt;
            XrApplication cold(id, cfg);
            const StereoFrame c = cold.renderFrame(head, t);
            const StereoFrame w = warm.renderFrame(head, t);
            ASSERT_TRUE(sameImage(c.left, w.left)) << appName(id) << i;
            ASSERT_TRUE(sameImage(c.right, w.right)) << appName(id) << i;
            RasterStats delta = warm.stats();
            delta.triangles_submitted -= prev.triangles_submitted;
            delta.triangles_rasterized -= prev.triangles_rasterized;
            delta.fragments_shaded -= prev.fragments_shaded;
            delta.draw_calls -= prev.draw_calls;
            EXPECT_EQ(digestStats(0, delta), digestStats(0, cold.stats()))
                << appName(id) << i;
            prev = warm.stats();

            if (i == 20) {
                XrApplication tmp(warm); // Copy, then move.
                copied = std::move(tmp);
            }
            if (i >= 20) {
                const StereoFrame k = copied.renderFrame(head, t);
                ASSERT_TRUE(sameImage(k.left, w.left)) << appName(id) << i;
                ASSERT_TRUE(sameImage(k.right, w.right))
                    << appName(id) << i;
            }
        }
    }
}

TEST(EyePoseTest, IpdSeparatesEyes)
{
    const Pose head(Quat::identity(), Vec3(0, 1.6, 0));
    const Pose left = eyePose(head, 0.064, true);
    const Pose right = eyePose(head, 0.064, false);
    EXPECT_NEAR((left.position - right.position).norm(), 0.064, 1e-9);
    // Rotated head: separation still equals the IPD.
    const Pose head2(Quat::fromAxisAngle(Vec3(0, 1, 0), 1.0),
                     Vec3(0, 1.6, 0));
    const Pose l2 = eyePose(head2, 0.064, true);
    const Pose r2 = eyePose(head2, 0.064, false);
    EXPECT_NEAR((l2.position - r2.position).norm(), 0.064, 1e-9);
}

} // namespace
} // namespace illixr
