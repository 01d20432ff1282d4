/**
 * @file
 * Software rasterizer: the GPU-graphics substitute that renders the
 * application scenes (and whose modeled cost drives the "application"
 * component of the integrated system).
 *
 * Z-buffered triangle rasterization with per-vertex (Gouraud)
 * lighting, optional per-pixel (Phong-style) shading for the
 * Materials app, and backface culling.
 *
 * A draw runs in two phases (DESIGN.md §6): lightMesh() does the
 * view-independent per-vertex work (world position, unit normal,
 * Gouraud colour) once per model transform, and Rasterizer::draw()
 * projects, rejects off-screen objects whole, sets up and rasterizes
 * per eye.
 */

#pragma once

#include "foundation/mat.hpp"
#include "image/image.hpp"
#include "render/mesh.hpp"

#include <cstdint>
#include <vector>

namespace illixr {

/** Shading model selector. */
enum class ShadingModel
{
    Gouraud,  ///< Per-vertex diffuse (cheap).
    PerPixel, ///< Per-pixel diffuse+specular (Materials-style PBR-lite).
};

/** Simple directional light. */
struct DirectionalLight
{
    Vec3 direction{0.4, 1.0, 0.3}; ///< Toward the light (world).
    double intensity = 0.9;
    double ambient = 0.25;
};

/** Render statistics for the work model. */
struct RasterStats
{
    std::size_t triangles_submitted = 0;
    std::size_t triangles_rasterized = 0; ///< After culling/clip reject.
    std::size_t fragments_shaded = 0;
    std::size_t draw_calls = 0;

    void reset() { *this = RasterStats(); }
};

/**
 * Phase 1 of a draw: a mesh lit under one model transform, light and
 * shading model. Nothing in it depends on the view, so one LitMesh
 * serves both eyes and every frame until the transform changes.
 * Holds values only (no pointer to the Mesh it was built from).
 */
struct LitMesh
{
    Mat4 model;               ///< Model-to-world transform lit under.
    DirectionalLight light;
    ShadingModel shading = ShadingModel::Gouraud;
    std::vector<Vec3> world;  ///< World-space vertex positions.
    std::vector<Vec3> normal; ///< Unit world-space normals.
    std::vector<Vec3> color;  ///< Gouraud-lit (PerPixel: base) colours.
    /** Model-space vertex positions as x/y/z arrays for the 4-lane
     *  projection, zero-padded to a multiple of 4 entries. */
    std::vector<double> pos_x, pos_y, pos_z;
    Vec3 bound_center;        ///< Model-space bounding sphere of the
    double bound_radius = 0.0; ///< mesh, for the whole-object reject.
};

/** Build (or rebuild in place) the phase-1 lighting of @p mesh. */
void lightMesh(const Mesh &mesh, const Mat4 &model,
               const DirectionalLight &light, ShadingModel shading,
               LitMesh &out);

/** Margin of the whole-object reject beyond each screen edge. */
constexpr double kRejectMarginPx = 2.0;

/**
 * Whole-object reject: true when the model-space sphere (@p center,
 * @p radius) under @p mvp lies entirely behind the eye plane (clip
 * w <= 0), or entirely more than kRejectMarginPx beyond one edge of a
 * @p width x @p height screen. Such an object puts no triangle on
 * screen and none in RasterStats::triangles_rasterized, so skipping it
 * is exact. Near and far planes are deliberately not tested: triangles
 * beyond them still count as rasterized.
 */
bool sphereOutsideView(const Vec3 &center, double radius, const Mat4 &mvp,
                       int width, int height);

/**
 * Color + depth framebuffer with draw calls.
 */
class Rasterizer
{
  public:
    Rasterizer(int width, int height);

    /** Clear color and depth. */
    void clear(const Vec3 &color);

    /**
     * Phase 2 of a draw: project @p mesh (lit as @p lit) for one eye
     * and rasterize it. Counts the draw call and its submitted
     * triangles before the whole-object reject.
     *
     * @param mesh Geometry the LitMesh was built from.
     * @param lit  Phase-1 lighting of @p mesh (see lightMesh()).
     * @param view World-to-view transform.
     * @param proj Perspective projection.
     */
    void draw(const Mesh &mesh, const LitMesh &lit, const Mat4 &view,
              const Mat4 &proj);

    /**
     * Draw a mesh: lightMesh() followed by the phase-2 draw.
     *
     * @param mesh    Geometry (world or model space).
     * @param model   Model-to-world transform.
     * @param view    World-to-view transform.
     * @param proj    Perspective projection.
     * @param light   Scene light.
     * @param shading Shading model.
     */
    void draw(const Mesh &mesh, const Mat4 &model, const Mat4 &view,
              const Mat4 &proj, const DirectionalLight &light,
              ShadingModel shading = ShadingModel::Gouraud);

    const RgbImage &color() const { return color_; }
    const ImageF &depth() const { return depth_; }
    RasterStats &stats() { return stats_; }
    const RasterStats &stats() const { return stats_; }

    int width() const { return color_.width(); }
    int height() const { return color_.height(); }

  private:
    /** Per-eye vertex after projection (screen space, y down). */
    struct ProjectedVertex
    {
        double sx, sy; ///< Screen position.
        double z;      ///< NDC depth.
        double inv_w;  ///< 1 / clip w.
    };

    /** Screen-space triangle after setup/culling, ready to rasterize;
     *  ia, ib, ic index the mesh's vertices. */
    struct SetupTriangle
    {
        std::uint32_t ia, ib, ic;
        double inv_area;
        int x0, x1, y0, y1; ///< Pixel box: centre clip, else bounding.
        bool tall;          ///< Walk columns: the box is taller than wide.
    };

    RgbImage color_;
    ImageF depth_; ///< NDC depth in [-1, 1]; init +inf-like.
    RasterStats stats_;

    // Per-draw scratch, kept across draws so a frame allocates it once.
    // Sized like LitMesh::pos_x: padding lanes are projected too.
    std::vector<ProjectedVertex> projected_;
    std::vector<char> valid_; ///< clip w > 1e-6 (char: tiles write bytes).
    std::vector<SetupTriangle> tris_; ///< Set-up prefix + spare lanes.
    std::vector<std::vector<std::uint32_t>> bins_; ///< Per band.
};

} // namespace illixr
