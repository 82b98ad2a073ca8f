// Fixed-size (compile-time dimension) matrix/vector algebra and the
// generic EKF step.
//
// MatN/VecN keep their storage inline (std::array) in the style of
// Miniflie's `ekf.hpp` fixed `float dat[EKF_N][EKF_N]` matrices, so a
// predict+update costs zero heap allocations and the optimizer can unroll
// every loop over the compile-time bounds. Every shape is part of the
// type, so a dimension mismatch does not compile.
//
// Bit contract: the loop structure, accumulation order and association
// below are fixed (the i/k/j product with its `aik == 0.0` skip, the
// partial-pivot Gauss-Jordan inverse, the Joseph-form update and the
// 0.5*(a+b) symmetrize). test_matn pins their results on seeded inputs
// and BaselinePins the altitude-EKF baseline built on them; reordering any
// of it moves result bits.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <utility>

#include "math/singular.hpp"

namespace rge::math {

/// Fixed-size column vector of doubles (value-initialized to zero).
template <std::size_t N>
struct VecN {
  std::array<double, N> d{};

  static constexpr std::size_t size() { return N; }
  double& operator[](std::size_t i) { return d[i]; }
  double operator[](std::size_t i) const { return d[i]; }

  VecN& operator+=(const VecN& o) {
    for (std::size_t i = 0; i < N; ++i) d[i] += o.d[i];
    return *this;
  }
  VecN& operator-=(const VecN& o) {
    for (std::size_t i = 0; i < N; ++i) d[i] -= o.d[i];
    return *this;
  }
  friend VecN operator+(VecN a, const VecN& b) { return a += b; }
  friend VecN operator-(VecN a, const VecN& b) { return a -= b; }

  double dot(const VecN& o) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < N; ++i) acc += d[i] * o.d[i];
    return acc;
  }
};

/// Fixed-size row-major matrix of doubles (value-initialized to zero).
template <std::size_t R, std::size_t C>
struct MatN {
  std::array<double, R * C> d{};

  static constexpr std::size_t rows() { return R; }
  static constexpr std::size_t cols() { return C; }
  double& operator()(std::size_t r, std::size_t c) { return d[r * C + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return d[r * C + c];
  }

  static MatN identity()
    requires(R == C)
  {
    MatN m;
    for (std::size_t i = 0; i < R; ++i) m(i, i) = 1.0;
    return m;
  }

  MatN& operator+=(const MatN& o) {
    for (std::size_t i = 0; i < R * C; ++i) d[i] += o.d[i];
    return *this;
  }
  MatN& operator-=(const MatN& o) {
    for (std::size_t i = 0; i < R * C; ++i) d[i] -= o.d[i];
    return *this;
  }
  friend MatN operator+(MatN a, const MatN& b) { return a += b; }
  friend MatN operator-(MatN a, const MatN& b) { return a -= b; }

  /// Matrix product: i/k/j loop order with the `aik == 0.0` row-term skip.
  template <std::size_t C2>
  MatN<R, C2> operator*(const MatN<C, C2>& o) const {
    MatN<R, C2> out;
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t k = 0; k < C; ++k) {
        const double aik = (*this)(i, k);
        if (aik == 0.0) continue;
        for (std::size_t j = 0; j < C2; ++j) {
          out(i, j) += aik * o(k, j);
        }
      }
    }
    return out;
  }

  /// Matrix-vector product (one accumulator per row).
  VecN<R> operator*(const VecN<C>& v) const {
    VecN<R> out;
    for (std::size_t i = 0; i < R; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < C; ++j) acc += (*this)(i, j) * v[j];
      out[i] = acc;
    }
    return out;
  }

  MatN<C, R> transpose() const {
    MatN<C, R> out;
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = 0; j < C; ++j) out(j, i) = (*this)(i, j);
    }
    return out;
  }

  /// Gauss-Jordan inverse with partial pivoting. Throws SingularMatrixError
  /// when no pivot above 1e-300 remains.
  MatN inverse() const
    requires(R == C)
  {
    constexpr std::size_t n = R;
    MatN a(*this);
    MatN inv = MatN::identity();
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(a(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::abs(a(r, col)) > best) {
          best = std::abs(a(r, col));
          pivot = r;
        }
      }
      if (best < 1e-300) {
        throw SingularMatrixError("MatN::inverse: singular matrix");
      }
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(a(col, j), a(pivot, j));
          std::swap(inv(col, j), inv(pivot, j));
        }
      }
      const double di = a(col, col);
      for (std::size_t j = 0; j < n; ++j) {
        a(col, j) /= di;
        inv(col, j) /= di;
      }
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = a(r, col);
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) {
          a(r, j) -= f * a(col, j);
          inv(r, j) -= f * inv(col, j);
        }
      }
    }
    return inv;
  }

  /// Average each off-diagonal pair: A <- (A + A^T)/2.
  void symmetrize()
    requires(R == C)
  {
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = i + 1; j < C; ++j) {
        const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
        (*this)(i, j) = avg;
        (*this)(j, i) = avg;
      }
    }
  }
};

/// Quadratic form x . (A x).
template <std::size_t N>
double quadratic_form_n(const MatN<N, N>& a, const VecN<N>& x) {
  return x.dot(a * x);
}

/// Generic EKF over an N-dimensional state with a Joseph-form update.
///
/// The caller evaluates its process and measurement models at the prior
/// state and passes the results in: `predict` takes x_next = f(x, u) and
/// F = df/dx, `update` takes h(x) and H = dh/dx. `update` returns false
/// when the NIS gate rejects the measurement (the state is then left
/// untouched).
template <std::size_t N>
class EkfN {
 public:
  EkfN() = default;
  EkfN(const VecN<N>& initial_state, const MatN<N, N>& initial_cov)
      : x_(initial_state), p_(initial_cov) {}

  const VecN<N>& state() const { return x_; }
  const MatN<N, N>& covariance() const { return p_; }

  /// Propagate: x <- x_next, P <- F P F^T + Q, with x_next = f(x, u) and
  /// f_jac = df/dx both evaluated at the *prior* state.
  void predict(const VecN<N>& x_next, const MatN<N, N>& f_jac,
               const MatN<N, N>& q) {
    x_ = x_next;
    p_ = f_jac * p_ * f_jac.transpose() + q;
    p_.symmetrize();
  }

  /// Correct with measurement z. `predicted` is h(x) at the prior state
  /// and `h_jac` = dh/dx there. With `gate_nis > 0`, a measurement whose
  /// normalized innovation squared exceeds the gate is rejected; the NIS
  /// is written to `nis_out` either way. Throws SingularMatrixError when
  /// S = H P H^T + R is numerically singular.
  template <std::size_t M>
  bool update(const VecN<M>& predicted, const MatN<M, N>& h_jac,
              const MatN<M, M>& r, const VecN<M>& z, double gate_nis = 0.0,
              double* nis_out = nullptr) {
    const VecN<M> innovation = z - predicted;
    const MatN<M, M> innovation_cov = h_jac * p_ * h_jac.transpose() + r;
    const MatN<M, M> s_inv = innovation_cov.inverse();
    const double nis = quadratic_form_n(s_inv, innovation);
    if (nis_out != nullptr) *nis_out = nis;

    if (gate_nis > 0.0 && nis > gate_nis) return false;

    const MatN<N, M> gain = p_ * h_jac.transpose() * s_inv;
    x_ += gain * innovation;

    // Joseph form: P = (I - K H) P (I - K H)^T + K R K^T.
    const MatN<N, N> ikh = MatN<N, N>::identity() - gain * h_jac;
    p_ = ikh * p_ * ikh.transpose() + gain * r * gain.transpose();
    p_.symmetrize();
    return true;
  }

 private:
  VecN<N> x_{};
  MatN<N, N> p_{};
};

}  // namespace rge::math
