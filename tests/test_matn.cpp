// Fixed-dimension matrix algebra and the generic EKF.
//
// MatN.*/EkfN.* pin results bit for bit: each hashes (FNV-1a over raw
// IEEE-754 bits) what MatN/VecN/EkfN compute on seeded random inputs, so a
// change to a loop order, the structural-zero skip, the pivoting, the
// Joseph form or the symmetrize fails here. Change a pin only for a
// deliberate numerical change, and record why in the change log.
// SmallSolve.* cover detail::solve_small, the LU behind LOESS, and Ekf.*
// the estimation properties of the filter on EkfN<1>/EkfN<2>.
#include "math/matn.hpp"

#include <cstddef>
#include <limits>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "math/small_solve.hpp"

#include "fnv1a.hpp"

namespace rge::math {
namespace {

using testing::Fnv1a;

template <std::size_t R, std::size_t C>
MatN<R, C> random_matn(Rng& rng) {
  MatN<R, C> m;
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t j = 0; j < C; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  }
  return m;
}

template <std::size_t R, std::size_t C>
void hash_mat(Fnv1a& h, const MatN<R, C>& m) {
  for (const double v : m.d) h.f64(v);
}

TEST(MatN, MultiplyMatchesPin) {
  Rng rng(11);
  Fnv1a h;
  for (int rep = 0; rep < 50; ++rep) {
    const auto a = random_matn<3, 4>(rng);
    const auto b = random_matn<4, 2>(rng);
    hash_mat(h, a * b);
  }
  EXPECT_EQ(h.value(), 0x0fb430acde09e9c1ull);
}

TEST(MatN, MultiplySkipsStructuralZeros) {
  Rng rng(12);
  auto a = random_matn<4, 4>(rng);
  a(0, 1) = 0.0;
  a(2, 2) = 0.0;
  a(3, 0) = 0.0;
  const auto b = random_matn<4, 4>(rng);
  Fnv1a h;
  hash_mat(h, a * b);
  EXPECT_EQ(h.value(), 0x4611de01f0b9ecadull);
  // A skipped zero never multiplies: 0 * inf would make the sum NaN.
  const MatN<1, 2> row{{0.0, 1.0}};
  const MatN<2, 1> col{{std::numeric_limits<double>::infinity(), 2.0}};
  EXPECT_EQ((row * col)(0, 0), 2.0);
}

TEST(MatN, VectorProductAndQuadraticFormMatchPin) {
  Rng rng(13);
  Fnv1a h;
  for (int rep = 0; rep < 50; ++rep) {
    const auto a = random_matn<3, 3>(rng);
    VecN<3> x;
    for (auto& v : x.d) v = rng.uniform(-1.0, 1.0);
    for (const double v : (a * x).d) h.f64(v);
    h.f64(quadratic_form_n(a, x));
  }
  EXPECT_EQ(h.value(), 0x7b85ddd4a3e9f50dull);
}

TEST(MatN, InverseMatchesPin) {
  Rng rng(14);
  Fnv1a h;
  for (int rep = 0; rep < 50; ++rep) {
    auto a = random_matn<3, 3>(rng);
    for (std::size_t i = 0; i < 3; ++i) a(i, i) += 3.0;  // well-conditioned
    hash_mat(h, a.inverse());
  }
  EXPECT_EQ(h.value(), 0x3bab642466a09041ull);
}

TEST(MatN, SingularInverseThrows) {
  const MatN<2, 2> a;  // zero matrix
  EXPECT_THROW(a.inverse(), SingularMatrixError);
}

TEST(MatN, TransposeSymmetrizeIdentity) {
  Rng rng(16);
  const auto a = random_matn<2, 3>(rng);
  const MatN<3, 2> at = a.transpose();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(at(j, i), a(i, j));
  }
  const auto s0 = random_matn<3, 3>(rng);
  auto s = s0;
  s.symmetrize();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s(i, i), s0(i, i));
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_EQ(s(i, j), 0.5 * (s0(i, j) + s0(j, i)));
      EXPECT_EQ(s(j, i), s(i, j));
    }
  }
  const auto id = MatN<3, 3>::identity();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

// ---- detail::solve_small ---------------------------------------------------

TEST(SmallSolve, SolvesWithPivotingAndThrowsOnSingular) {
  // 3x + 2y = 12, x + 2y = 8.
  double a[4] = {3.0, 2.0, 1.0, 2.0};
  const double b[2] = {12.0, 8.0};
  double x[2];
  detail::solve_small(2, a, b, x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  // A zero leading pivot needs the row swap: y = 1, x = 2.
  double swap[4] = {0.0, 1.0, 1.0, 0.0};
  const double sb[2] = {1.0, 2.0};
  detail::solve_small(2, swap, sb, x);
  EXPECT_EQ(x[0], 2.0);
  EXPECT_EQ(x[1], 1.0);
  double zero[4] = {};
  EXPECT_THROW(detail::solve_small(2, zero, b, x), SingularMatrixError);
}

TEST(SmallSolve, AgreesWithInverse) {
  Rng rng(15);
  for (int rep = 0; rep < 50; ++rep) {
    auto a = random_matn<4, 4>(rng);
    for (std::size_t i = 0; i < 4; ++i) a(i, i) += 4.0;
    VecN<4> b;
    for (auto& v : b.d) v = rng.uniform(-1.0, 1.0);
    auto lu = a;
    VecN<4> x;
    detail::solve_small(4, lu.d.data(), b.d.data(), x.d.data());
    const VecN<4> ref = a.inverse() * b;
    for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], ref[i], 1e-12);
  }
}

// ---- EkfN ------------------------------------------------------------------

/// Constant-velocity 2-state filter, position measured, every 4th
/// measurement an outlier for the gate.
TEST(EkfN, PredictUpdateMatchesPin) {
  const double dt = 0.1;
  const MatN<2, 2> f{{1.0, dt, 0.0, 1.0}};
  const MatN<2, 2> q{{1e-4, 0.0, 0.0, 1e-3}};
  const MatN<1, 2> h_jac{{1.0, 0.0}};
  const MatN<1, 1> r{{0.25}};
  EkfN<2> ekf(VecN<2>{{0.0, 1.0}}, MatN<2, 2>::identity());

  Rng rng(17);
  const double gate = 9.0;
  Fnv1a h;
  for (int k = 0; k < 200; ++k) {
    ekf.predict(f * ekf.state(), f, q);
    const double z =
        (k % 4 == 3) ? 1e3 : ekf.state()[0] + rng.gaussian(0.0, 0.5);
    double nis = 0.0;
    const bool accepted = ekf.update(VecN<1>{{ekf.state()[0]}}, h_jac, r,
                                     VecN<1>{{z}}, gate, &nis);
    if (k % 4 == 3) {
      EXPECT_FALSE(accepted) << "step " << k;
    }
    h.u64(accepted ? 1 : 0);
    h.f64(nis);
    for (const double v : ekf.state().d) h.f64(v);
    hash_mat(h, ekf.covariance());
  }
  EXPECT_EQ(h.value(), 0xa920102afe6f9114ull);
}

TEST(EkfN, SingularInnovationCovarianceThrows) {
  EkfN<1> fix;  // default state: zero covariance
  MatN<1, 1> h;  // zero observation matrix, zero R -> singular S
  MatN<1, 1> r;
  EXPECT_THROW(
      fix.update(VecN<1>{{0.0}}, h, r, VecN<1>{{1.0}}, 0.0, nullptr),
      SingularMatrixError);
}

// ---- Filter properties -----------------------------------------------------

/// Constant-state process x' = x with process noise q.
void predict_constant(EkfN<1>& f, double q) {
  const VecN<1> x = f.state();
  f.predict(x, MatN<1, 1>::identity(), MatN<1, 1>{{q}});
}

/// Direct measurement z = x + noise of variance r.
bool update_direct(EkfN<1>& f, double z, double r, double gate_nis = 0.0,
                   double* nis = nullptr) {
  const VecN<1> hx = f.state();
  return f.update(hx, MatN<1, 1>::identity(), MatN<1, 1>{{r}},
                  VecN<1>{{z}}, gate_nis, nis);
}

/// x = [position, velocity], x' = F x; position measured with noise r.
struct ConstantVelocity {
  MatN<2, 2> f;
  MatN<2, 2> q;
  MatN<1, 1> r;

  void step(EkfN<2>& ekf, double z) const {
    ekf.predict(f * ekf.state(), f, q);
    ekf.update(VecN<1>{{ekf.state()[0]}}, MatN<1, 2>{{1.0, 0.0}}, r,
               VecN<1>{{z}});
  }
};

TEST(Ekf, ConvergesToConstantTruth) {
  EkfN<1> f(VecN<1>{{0.0}}, MatN<1, 1>{{100.0}});
  Rng rng(17);
  const double truth = 3.7;
  for (int i = 0; i < 300; ++i) {
    predict_constant(f, 1e-6);
    update_direct(f, truth + rng.gaussian(0.0, 0.5), 0.25);
  }
  EXPECT_NEAR(f.state()[0], truth, 0.1);
  EXPECT_LT(f.covariance()(0, 0), 0.05);
}

TEST(Ekf, CovarianceShrinksWithUpdates) {
  EkfN<1> f(VecN<1>{{0.0}}, MatN<1, 1>{{10.0}});
  double prev = f.covariance()(0, 0);
  for (int i = 0; i < 5; ++i) {
    predict_constant(f, 0.0);
    update_direct(f, 0.0, 1.0);
    const double cur = f.covariance()(0, 0);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
  // Information form: after n updates with R = 1 and P0 = 10,
  // P = 1/(1/10 + n).
  EXPECT_NEAR(prev, 1.0 / (0.1 + 5.0), 1e-9);
}

TEST(Ekf, GateRejectsOutliers) {
  EkfN<1> f(VecN<1>{{0.0}}, MatN<1, 1>{{1.0}});
  // Settle near zero.
  for (int i = 0; i < 50; ++i) {
    predict_constant(f, 1e-4);
    update_direct(f, 0.0, 0.01);
  }
  const double before = f.state()[0];
  const double p_before = f.covariance()(0, 0);
  EXPECT_FALSE(update_direct(f, 100.0, 0.01, /*gate_nis=*/9.0));
  EXPECT_EQ(f.state()[0], before);  // state untouched
  EXPECT_EQ(f.covariance()(0, 0), p_before);
  // Without gating the same measurement moves the state.
  EXPECT_TRUE(update_direct(f, 100.0, 0.01, /*gate_nis=*/0.0));
  EXPECT_GT(f.state()[0], before);
}

TEST(Ekf, NisIsSensible) {
  EkfN<1> f(VecN<1>{{0.0}}, MatN<1, 1>{{1.0}});
  double nis = 0.0;
  update_direct(f, 2.0, 1.0, 0.0, &nis);
  // Innovation 2, S = P + R = 2 -> NIS = 4/2 = 2; gain 1/2 moves the
  // state to 1 and halves the variance.
  EXPECT_NEAR(nis, 2.0, 1e-12);
  EXPECT_NEAR(f.state()[0], 1.0, 1e-12);
  EXPECT_NEAR(f.covariance()(0, 0), 0.5, 1e-12);
}

TEST(Ekf, TracksRampWithProcessNoise) {
  // State random-walk model tracking a slow ramp.
  EkfN<1> f(VecN<1>{{0.0}}, MatN<1, 1>{{1.0}});
  Rng rng(4);
  double truth = 0.0;
  for (int i = 0; i < 500; ++i) {
    truth += 0.01;
    predict_constant(f, 0.05);
    update_direct(f, truth + rng.gaussian(0.0, 0.7), 0.5);
  }
  EXPECT_NEAR(f.state()[0], truth, 0.5);
}

TEST(Ekf, TwoStateCoupling) {
  // Only position is measured; velocity becomes observable through the
  // coupling — the same mechanism the gradient EKF relies on.
  const double dt = 0.1;
  const ConstantVelocity model{MatN<2, 2>{{1.0, dt, 0.0, 1.0}},
                               MatN<2, 2>{{1e-6, 0.0, 0.0, 1e-6}},
                               MatN<1, 1>{{0.01}}};
  EkfN<2> f(VecN<2>{{0.0, 0.0}}, MatN<2, 2>{{1.0, 0.0, 0.0, 4.0}});
  Rng rng(9);
  const double v_true = 1.5;
  double pos = 0.0;
  for (int i = 0; i < 400; ++i) {
    pos += v_true * dt;
    model.step(f, pos + rng.gaussian(0.0, 0.1));
  }
  EXPECT_NEAR(f.state()[1], v_true, 0.05);
}

TEST(Ekf, CovarianceStaysSymmetric) {
  const ConstantVelocity model{MatN<2, 2>{{1.0, 0.1, 0.0, 1.0}},
                               MatN<2, 2>{{0.01, 0.0, 0.0, 0.01}},
                               MatN<1, 1>{{0.5}}};
  EkfN<2> f(VecN<2>{{0.0, 0.0}}, MatN<2, 2>{{5.0, 0.0, 0.0, 3.0}});
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    model.step(f, rng.gaussian());
    const MatN<2, 2>& p = f.covariance();
    EXPECT_EQ(p(0, 1), p(1, 0));
    EXPECT_GT(p(0, 0), 0.0);
    EXPECT_GT(p(1, 1), 0.0);
  }
}

}  // namespace
}  // namespace rge::math
