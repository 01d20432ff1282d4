/**
 * @file
 * Fixed-size 3x3 and 4x4 matrices (row-major).
 */

#pragma once

#include "foundation/vec.hpp"

namespace illixr {

/** 3x3 double matrix, row-major. */
struct Mat3
{
    double m[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};

    static Mat3 identity();
    static Mat3 zero();

    /** Skew-symmetric (hat) matrix of @p v: hat(v) * w == v x w. */
    static Mat3 skew(const Vec3 &v);

    /** Outer product v * w^T. */
    static Mat3 outer(const Vec3 &v, const Vec3 &w);

    double &operator()(int r, int c) { return m[r][c]; }
    double operator()(int r, int c) const { return m[r][c]; }

    Mat3 operator+(const Mat3 &o) const;
    Mat3 operator-(const Mat3 &o) const;
    Mat3 operator*(const Mat3 &o) const;
    Mat3 operator*(double s) const;
    Vec3 operator*(const Vec3 &v) const;

    Mat3 transpose() const;
    double trace() const;
    double determinant() const;

    /** Matrix inverse via cofactors. @pre determinant() != 0 */
    Mat3 inverse() const;
};

/** 4x4 double matrix, row-major. Used by the rendering pipeline. */
struct Mat4
{
    double m[4][4] = {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}};

    static Mat4 identity();
    static Mat4 zero();
    static Mat4 translation(const Vec3 &t);
    static Mat4 scale(const Vec3 &s);

    /** Embed a rotation block in the upper-left 3x3. */
    static Mat4 fromRotation(const Mat3 &r);

    /**
     * Right-handed perspective projection.
     *
     * @param fovy_rad  Vertical field of view in radians.
     * @param aspect    Width / height.
     * @param near_z    Near plane distance (> 0).
     * @param far_z     Far plane distance (> near_z).
     */
    static Mat4 perspective(double fovy_rad, double aspect, double near_z,
                            double far_z);

    /** Right-handed look-at view matrix. */
    static Mat4 lookAt(const Vec3 &eye, const Vec3 &center, const Vec3 &up);

    double &operator()(int r, int c) { return m[r][c]; }
    double operator()(int r, int c) const { return m[r][c]; }

    Mat4 operator*(const Mat4 &o) const;

    // Inline with the transforms below: the rasterizer runs them per
    // vertex.
    Vec4 operator*(const Vec4 &v) const
    {
        const double in[4] = {v.x, v.y, v.z, v.w};
        double out[4];
        for (int i = 0; i < 4; ++i) {
            out[i] = 0.0;
            for (int k = 0; k < 4; ++k)
                out[i] += m[i][k] * in[k];
        }
        return {out[0], out[1], out[2], out[3]};
    }

    Mat4 transpose() const;

    /** Transform a point (w = 1) and divide by the resulting w. */
    Vec3 transformPoint(const Vec3 &p) const
    {
        const Vec4 h = *this * Vec4(p, 1.0);
        if (h.w != 0.0 && h.w != 1.0)
            return h.xyz() / h.w;
        return h.xyz();
    }

    /** Transform a direction (w = 0). */
    Vec3 transformDirection(const Vec3 &d) const
    {
        return (*this * Vec4(d, 0.0)).xyz();
    }

    /**
     * General inverse via Gauss–Jordan elimination.
     * @pre matrix is invertible.
     */
    Mat4 inverse() const;
};

} // namespace illixr
