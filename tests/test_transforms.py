import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import assume, given, strategies as st

from netjps import synth, transforms
from netjps.errors import DegenerateSampleError, DomainError, InputError, NoRootError
from netjps.transforms import (
    SKEW_TOL,
    boxcox_apply,
    boxcox_zero_skew,
    skewness,
)

from oracles import moment_skewness


class TestSkewness:
    def test_symmetric_sample(self):
        assert skewness([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        # {0, 0, 1}: m2 = 2/9, m3 = 2/27 -> skew = 1/sqrt(2)
        want = moment_skewness([0.0, 0.0, 1.0])
        assert want == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert skewness([0.0, 0.0, 1.0]) == pytest.approx(want, abs=1e-12)

    def test_constant_sample_errors(self):
        with pytest.raises(DegenerateSampleError):
            skewness([0.1, 0.1, 0.1, 0.1])

    def test_short_or_nonfinite(self):
        with pytest.raises(Exception):
            skewness([1.0, 2.0])
        with pytest.raises(Exception):
            skewness([1.0, np.nan, 2.0])

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.gamma(2.0, size=50)
            assert skewness(x) == pytest.approx(
                scipy.stats.skew(x, bias=True), rel=1e-10
            )

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=40),
        st.floats(-50, 50),
        st.floats(0.01, 50),
    )
    def test_translation_and_scale(self, xs, a, b):
        x = np.asarray(xs)
        assume(np.std(x) > 1e-3)
        s = skewness(x)
        assert skewness(a + b * x) == pytest.approx(s, rel=1e-5, abs=1e-7)
        assert skewness(a - b * x) == pytest.approx(-s, rel=1e-5, abs=1e-7)


def invert(zstar, k):
    """The closed-form inverse of boxcox_apply, for round trips."""
    if abs(k) < np.finfo(float).tiny:
        return np.exp(zstar)
    return np.exp(np.log1p(k * zstar) / k)


class TestBoxCoxApplyInvert:
    def test_k1_shift(self):
        z = np.array([1.0, 2.0, 3.5])
        assert np.allclose(boxcox_apply(z, 1.0), z - 1.0)

    def test_k0_log(self):
        z = np.array([0.5, 1.0, np.e])
        assert np.allclose(boxcox_apply(z, 0.0), np.log(z))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        z = rng.lognormal(size=200)
        for k in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0):
            back = invert(boxcox_apply(z, k), k)
            assert np.max(np.abs(back - z) / z) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            boxcox_apply([-1.0, 2.0], 0.5)
        with pytest.raises(DomainError):
            boxcox_apply([0.0], 1.0)

    @given(st.floats(-3, 3), st.integers(0, 1000))
    def test_round_trip_property(self, k, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.1, 10.0, size=20)
        back = invert(boxcox_apply(z, k), k)
        assert np.max(np.abs(back - z) / z) < 1e-10


class TestZeroSkewFit:
    def test_already_symmetric_gives_k_near_1(self):
        fit, zstar = boxcox_zero_skew(np.array([1.0, 2.0, 3.0]))
        assert fit.k == pytest.approx(1.0, abs=1e-4)
        assert np.allclose(zstar, np.array([1.0, 2.0, 3.0]) - 1.0, atol=1e-3)

    def test_lognormal_gives_k_near_0(self):
        rng = np.random.default_rng(11)
        z = np.exp(rng.normal(size=10_000))
        # oracle: the log restores symmetry on this sample
        assert abs(moment_skewness(np.log(z))) < 0.1
        fit, zstar = boxcox_zero_skew(z)
        assert abs(fit.k) < 0.1
        assert abs(skewness(zstar)) < 1e-6

    def test_postcondition_on_many_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.gamma(rng.uniform(0.5, 5.0), size=300) + 0.05
            fit, zstar = boxcox_zero_skew(z)
            assert abs(skewness(zstar)) < 1e-6

    def test_matches_brentq_oracle(self):
        rng = np.random.default_rng(21)
        z = rng.lognormal(0.3, 0.8, size=500)
        fit, _ = boxcox_zero_skew(z)
        root = scipy.optimize.brentq(
            lambda k: scipy.stats.skew((z**k - 1) / k if k != 0 else np.log(z), bias=True),
            -5.0, 5.0, xtol=1e-12,
        )
        assert fit.k == pytest.approx(root, abs=1e-6)

    def test_no_root_reports_endpoints(self):
        # {1,1,1,2} transforms to {0,0,0,c} with c > 0 for every k:
        # skewness is constant positive, no sign change anywhere
        with pytest.raises(NoRootError, match="skewness"):
            boxcox_zero_skew(np.array([1.0, 1.0, 1.0, 2.0]))

    def test_constant_treatment_names_zero_variance(self):
        # every transform of a constant is constant: no skewness to root
        with pytest.raises(NoRootError, match="^no zero-skewness root: the treatment has zero "
                                              "variance$"):
            boxcox_zero_skew(np.full(50, 2.5))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            boxcox_zero_skew(np.array([1.0, 0.0, 2.0]))


def bootstrap_resamples(dataset, count, seed=0):
    """The first ``count`` replicate panels, drawn as the bootstrap draws
    them: the distinct drawn rows, weighted by their draw counts."""
    n = dataset.n
    for r in range(count):
        counts = np.bincount(np.random.default_rng((seed, r)).integers(0, n, size=n),
                             minlength=n)
        rows = np.flatnonzero(counts)
        yield dataset.subset(rows, weights=counts[rows])


class TestWarmStart:
    @pytest.fixture(scope="class")
    def panel(self):
        dataset, _ = synth.generate(synth.scenario_confounded(1))
        return dataset, boxcox_zero_skew(dataset.z)[0].k

    def test_replicate_roots_match_the_cold_start(self, panel):
        dataset, k_point = panel
        for sample in bootstrap_resamples(dataset, 20):
            cold, _ = boxcox_zero_skew(sample.z, sample.weights)
            warm, _ = boxcox_zero_skew(sample.z, sample.weights, k_point)
            assert warm.k == pytest.approx(cold.k, abs=1e-6)
            assert abs(cold.skewness) < SKEW_TOL and abs(warm.skewness) < SKEW_TOL

    def test_warm_roots_evaluate_the_skewness_less_often(self, panel, monkeypatch):
        dataset, k_point = panel
        calls = []
        counted = transforms.skewness

        def counting(*args):
            calls.append(None)
            return counted(*args)

        monkeypatch.setattr(transforms, "skewness", counting)
        evals = {}
        for start in (None, k_point):
            calls.clear()
            for sample in bootstrap_resamples(dataset, 20):
                boxcox_zero_skew(sample.z, sample.weights, start)
            evals[start] = len(calls)
        assert evals[k_point] < evals[None]

    def test_distant_start_still_finds_the_root(self):
        # the log restores symmetry on a log-normal sample: its root is near
        # 0.  From |k| >= 80 the cubes of the transformed sample overflow, so
        # the start's first bracket has no finite skewness and the search
        # falls back to the cold bracket
        z = np.exp(np.random.default_rng(11).normal(size=2000))
        cold, _ = boxcox_zero_skew(z)
        assert cold.k == pytest.approx(0.01542, abs=1e-5)
        for start in (40.0, -80.0, -1e3, 1e3):
            warm, zstar = boxcox_zero_skew(z, k_start=start)
            assert warm.k == pytest.approx(cold.k, abs=1e-6), start
            assert abs(skewness(zstar)) < SKEW_TOL

    def test_errors_do_not_depend_on_the_start(self):
        for z in (np.full(50, 2.5), np.array([1.0, 1.0, 1.0, 2.0])):
            with pytest.raises(NoRootError) as cold:
                boxcox_zero_skew(z)
            for start in (0.0, 3.0, -40.0, 1e3):
                with pytest.raises(NoRootError) as warm:
                    boxcox_zero_skew(z, k_start=start)
                assert type(warm.value) is type(cold.value)
                assert str(warm.value) == str(cold.value)

    def test_non_finite_start_rejected(self):
        with pytest.raises(InputError, match="not finite"):
            boxcox_zero_skew(np.array([1.0, 2.0, 4.0]), k_start=np.nan)
