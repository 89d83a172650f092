import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, strategies as st

from netjps.errors import DomainError, InputError, SingularDesignError
from netjps.linear_model import (
    WITH_INTERFERENCE_TERMS,
    WITHOUT_INTERFERENCE_TERMS,
    build_outcome_matrix,
    fit_ols,
    normal_density,
)

from oracles import normal_equations_ols


class TestFitOls:
    def test_exact_interpolation(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        fit = fit_ols(x, y, names=("const", "slope"))
        assert fit.theta == pytest.approx([1.0, 2.0], abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)
        assert fit.sigma == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_regressor_gets_zero_slope(self):
        x1 = np.array([-1.0, 0.0, 1.0, 0.0])
        y = np.array([1.0, -1.0, 1.0, 3.0])  # orthogonal to centered x1
        fit = fit_ols(np.column_stack([np.ones(4), x1]), y)
        assert fit.theta[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            x = rng.normal(size=(50, 4))
            y = rng.normal(size=50)
            fit = fit_ols(x, y)
            want = normal_equations_ols(x, y)
            assert np.max(np.abs(fit.theta - want)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=(60, 5))
            y = rng.normal(size=60)
            fit = fit_ols(x, y)
            r = y - x @ fit.theta
            scale = np.linalg.norm(x, axis=0) * np.linalg.norm(y)
            assert np.all(np.abs(x.T @ r) < 1e-8 * scale)

    def test_exact_recovery_at_sigma_zero(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, 3))
        theta = np.array([0.5, -2.0, 3.25])
        fit = fit_ols(x, x @ theta)
        assert np.max(np.abs(fit.theta - theta)) < 1e-10

    def test_singular_design_names_columns(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(SingularDesignError) as exc:
            fit_ols(x, np.zeros(10), names=("const", "a", "a2x"))
        assert set(exc.value.columns) & {"a", "a2x"}

    def test_underdetermined_rejected(self):
        with pytest.raises(InputError, match="rows >= columns"):
            fit_ols(np.ones((2, 3)), np.zeros(2))

    def test_nonfinite_rejected(self):
        x = np.ones((4, 1))
        with pytest.raises(InputError):
            fit_ols(x, np.array([1.0, np.inf, 0.0, 2.0]))

    def test_sigma_is_mle(self):
        x = np.column_stack([np.ones(4)])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_ols(x, y)
        assert fit.sigma == pytest.approx(0.5)  # sqrt(rss/n) = sqrt(1/4)


class TestNormalDensity:
    def test_peak_value(self):
        assert normal_density(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_one_sd_out(self):
        want = np.exp(-0.5) / np.sqrt(2 * np.pi)
        assert normal_density(1.0, 0.0, 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.241971, abs=1e-6)

    @given(st.floats(-5, 5), st.floats(0.1, 10), st.floats(0, 10))
    def test_symmetry(self, mean, sd, delta):
        left = normal_density(mean - delta, mean, sd)
        right = normal_density(mean + delta, mean, sd)
        assert left == pytest.approx(right, rel=1e-12)

    def test_integrates_to_one(self):
        val, _ = scipy.integrate.quad(lambda t: normal_density(t, 1.3, 0.7), -10, 12)
        assert val == pytest.approx(1.0, abs=1e-6)
        grid = np.linspace(-8, 10, 20001)
        riemann = np.trapezoid(normal_density(grid, 1.3, 0.7), grid)
        assert riemann == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sd", [0.0, -1.0, np.nan])
    def test_bad_sd(self, sd):
        with pytest.raises(DomainError):
            normal_density(0.0, 0.0, sd)


def outcome_row(z, g, phi, lam, variant):
    """The design row of one scalar input set."""
    return build_outcome_matrix(z, g, phi, lam, variant)[0][0]


class TestOutcomeRow:
    def test_zero_inputs(self):
        row = outcome_row(0.0, 0.0, 0.0, 0.0, "with_interference")
        assert row[-1] == 1.0
        assert np.all(row[:-1] == 0.0)

    def test_hand_values(self):
        row = outcome_row(1.0, 2.0, 0.0, 0.0, "with_interference")
        names = list(WITH_INTERFERENCE_TERMS)
        assert row[names.index("z*g")] == 2.0
        assert row[names.index("g^3")] == 8.0
        assert row[names.index("z")] == 1.0

    def test_term_counts(self):
        assert len(WITH_INTERFERENCE_TERMS) == 16
        assert len(WITHOUT_INTERFERENCE_TERMS) == 8
        assert outcome_row(0.5, 0.5, 0.5, 0.5, "with_interference").shape == (16,)
        assert outcome_row(0.5, 0.5, 0.5, 0.5, "without_interference").shape == (8,)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(2)
        z, g, phi, lam = rng.normal(size=(4, 7))
        mat, names = build_outcome_matrix(z, g, phi, lam, "with_interference")
        assert mat.shape == (7, 16)
        for i in range(7):
            assert np.array_equal(
                mat[i], outcome_row(z[i], g[i], phi[i], lam[i], "with_interference")
            )

    def test_without_variant_ignores_g_lambda(self):
        mat1, _ = build_outcome_matrix(1.0, 5.0, 0.3, 9.0, "without_interference")
        mat2, _ = build_outcome_matrix(1.0, -2.0, 0.3, 0.1, "without_interference")
        assert np.array_equal(mat1, mat2)

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            outcome_row(0, 0, 0, 0, "sideways")

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            outcome_row(np.nan, 0, 0, 0, "with_interference")
