#include "foundation/mat.hpp"

#include <cmath>

namespace illixr {

Mat3
Mat3::identity()
{
    Mat3 r;
    r.m[0][0] = r.m[1][1] = r.m[2][2] = 1.0;
    return r;
}

Mat3
Mat3::zero()
{
    return Mat3();
}

Mat3
Mat3::skew(const Vec3 &v)
{
    Mat3 r;
    r.m[0][1] = -v.z;
    r.m[0][2] = v.y;
    r.m[1][0] = v.z;
    r.m[1][2] = -v.x;
    r.m[2][0] = -v.y;
    r.m[2][1] = v.x;
    return r;
}

Mat3
Mat3::outer(const Vec3 &v, const Vec3 &w)
{
    Mat3 r;
    const double a[3] = {v.x, v.y, v.z};
    const double b[3] = {w.x, w.y, w.z};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = a[i] * b[j];
    return r;
}

Mat3
Mat3::operator+(const Mat3 &o) const
{
    Mat3 r;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = m[i][j] + o.m[i][j];
    return r;
}

Mat3
Mat3::operator-(const Mat3 &o) const
{
    Mat3 r;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = m[i][j] - o.m[i][j];
    return r;
}

Mat3
Mat3::operator*(const Mat3 &o) const
{
    Mat3 r;
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            double acc = 0.0;
            for (int k = 0; k < 3; ++k)
                acc += m[i][k] * o.m[k][j];
            r.m[i][j] = acc;
        }
    }
    return r;
}

Mat3
Mat3::operator*(double s) const
{
    Mat3 r;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = m[i][j] * s;
    return r;
}

Vec3
Mat3::operator*(const Vec3 &v) const
{
    return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
}

Mat3
Mat3::transpose() const
{
    Mat3 r;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = m[j][i];
    return r;
}

double
Mat3::trace() const
{
    return m[0][0] + m[1][1] + m[2][2];
}

double
Mat3::determinant() const
{
    return m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
           m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
           m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
}

Mat3
Mat3::inverse() const
{
    const double det = determinant();
    Mat3 r;
    r.m[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) / det;
    r.m[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) / det;
    r.m[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) / det;
    r.m[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) / det;
    r.m[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) / det;
    r.m[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) / det;
    r.m[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) / det;
    r.m[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) / det;
    r.m[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) / det;
    return r;
}

Mat4
Mat4::identity()
{
    Mat4 r;
    for (int i = 0; i < 4; ++i)
        r.m[i][i] = 1.0;
    return r;
}

Mat4
Mat4::zero()
{
    return Mat4();
}

Mat4
Mat4::translation(const Vec3 &t)
{
    Mat4 r = identity();
    r.m[0][3] = t.x;
    r.m[1][3] = t.y;
    r.m[2][3] = t.z;
    return r;
}

Mat4
Mat4::scale(const Vec3 &s)
{
    Mat4 r = identity();
    r.m[0][0] = s.x;
    r.m[1][1] = s.y;
    r.m[2][2] = s.z;
    return r;
}

Mat4
Mat4::fromRotation(const Mat3 &rot)
{
    Mat4 r = identity();
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            r.m[i][j] = rot.m[i][j];
    return r;
}

Mat4
Mat4::perspective(double fovy_rad, double aspect, double near_z,
                  double far_z)
{
    const double f = 1.0 / std::tan(fovy_rad / 2.0);
    Mat4 r;
    r.m[0][0] = f / aspect;
    r.m[1][1] = f;
    r.m[2][2] = (far_z + near_z) / (near_z - far_z);
    r.m[2][3] = (2.0 * far_z * near_z) / (near_z - far_z);
    r.m[3][2] = -1.0;
    return r;
}

Mat4
Mat4::lookAt(const Vec3 &eye, const Vec3 &center, const Vec3 &up)
{
    const Vec3 f = (center - eye).normalized();
    const Vec3 s = f.cross(up).normalized();
    const Vec3 u = s.cross(f);
    Mat4 r = identity();
    r.m[0][0] = s.x;
    r.m[0][1] = s.y;
    r.m[0][2] = s.z;
    r.m[1][0] = u.x;
    r.m[1][1] = u.y;
    r.m[1][2] = u.z;
    r.m[2][0] = -f.x;
    r.m[2][1] = -f.y;
    r.m[2][2] = -f.z;
    r.m[0][3] = -s.dot(eye);
    r.m[1][3] = -u.dot(eye);
    r.m[2][3] = f.dot(eye);
    return r;
}

Mat4
Mat4::operator*(const Mat4 &o) const
{
    Mat4 r;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            double acc = 0.0;
            for (int k = 0; k < 4; ++k)
                acc += m[i][k] * o.m[k][j];
            r.m[i][j] = acc;
        }
    }
    return r;
}

Mat4
Mat4::transpose() const
{
    Mat4 r;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            r.m[i][j] = m[j][i];
    return r;
}

Mat4
Mat4::inverse() const
{
    // Gauss–Jordan with partial pivoting on an augmented 4x8 system.
    double a[4][8];
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            a[i][j] = m[i][j];
            a[i][j + 4] = (i == j) ? 1.0 : 0.0;
        }
    }
    for (int col = 0; col < 4; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 4; ++r) {
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        }
        if (pivot != col) {
            for (int j = 0; j < 8; ++j)
                std::swap(a[col][j], a[pivot][j]);
        }
        const double diag = a[col][col];
        for (int j = 0; j < 8; ++j)
            a[col][j] /= diag;
        for (int r = 0; r < 4; ++r) {
            if (r == col)
                continue;
            const double factor = a[r][col];
            for (int j = 0; j < 8; ++j)
                a[r][j] -= factor * a[col][j];
        }
    }
    Mat4 inv;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            inv.m[i][j] = a[i][j + 4];
    return inv;
}

} // namespace illixr
