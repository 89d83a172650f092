"""Regression-based balance diagnostics for the two propensity scores.

The check is split in two steps: conditioning the transformed individual
treatment on a cubic polynomial of the individual score, and conditioning
the neighborhood treatment on the individual treatment plus a cubic
polynomial of the neighborhood score.  In each step a Gaussian
likelihood-ratio test asks whether adding the covariates back improves the
fit; well-calibrated scores leave them nothing to explain.  A per-covariate
table of standardized treatment-coefficient shrinkage (with vs without the
scores) complements the two decision tests.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularDesignError
from .io import jsonable
from .linear_model import fit_ols, powers
from .transforms import boxcox_apply

logger = logging.getLogger(__name__)

_NESTING_SLACK = 1e-9  # relative tolerance when asserting rss_full <= rss_restricted


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution with integer ``df``: the
    regularized incomplete gamma function Q(df/2, x/2) in closed form,

        Q(a, h) = [erfc(sqrt(h)) if df is odd] + sum_s exp(s ln h - h - lgamma(s + 1))

    over s = a - 1, a - 2, ... down to 0 (even df) or 1/2 (odd df).  Each
    term is taken from its logarithm, so none overflows or underflows early.
    """
    if df <= 0:
        raise InputError(f"chi-square tail needs df >= 1, got {df}")
    if df != int(df):
        raise InputError(f"chi-square tail needs an integer df, got {df}")
    if x < 0:
        raise InputError("chi-square statistic must be >= 0")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    df = int(df)
    h = x / 2.0
    log_h = math.log(h)
    half = (df % 2) / 2.0
    tail = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    return tail + sum(math.exp((k + half) * log_h - h - math.lgamma(k + half + 1.0))
                      for k in range(df // 2))


def lr_test(rss_restricted, rss_full, n, df_added):
    """Gaussian likelihood-ratio test of nested linear models.

    Returns (statistic, p), statistic = n * ln(rss_restricted / rss_full)
    against the chi-square upper tail with ``df_added`` degrees of freedom.
    A zero full-model RSS flags an infinite statistic (p = 0).
    """
    if not isinstance(df_added, (int, np.integer)) or df_added < 1:
        raise InputError(f"df_added must be a positive integer, got {df_added!r}")
    if n <= df_added:
        raise InputError("sample size must exceed the added degrees of freedom")
    if rss_restricted < rss_full * (1.0 - _NESTING_SLACK):
        raise InputError(
            f"nesting violated: restricted RSS {rss_restricted:g} < full RSS {rss_full:g}"
        )
    if rss_full <= 0:
        return math.inf, 0.0
    stat = max(0.0, n * math.log(rss_restricted / rss_full))
    return stat, chi2_sf(stat, int(df_added))


def _fit_dropping_singular(x, y, names, step):
    """OLS with singular-column recovery: drop offending columns and warn.

    A fit names only columns that depend on the ones before them, so a
    design keeps its leading columns: ``const`` first keeps the intercept,
    and a restricted model's kept columns first keep the full model nested
    around it.
    """
    names = list(names)
    cols = {nm: x[:, j] for j, nm in enumerate(names)}
    dropped = []
    while True:
        mat = np.column_stack([cols[nm] for nm in names])
        try:
            return fit_ols(mat, y, names=tuple(names)), tuple(dropped)
        except SingularDesignError as exc:
            kill = list(exc.columns)
            if len(kill) >= len(names):
                raise
            for nm in kill:
                names.remove(nm)
                dropped.append(nm)
            logger.warning("balance %s: dropped singular columns %s", step, kill)


def _nonsingular_design(cols, y):
    """The design matrix and names of the ``(column, name)`` pairs ``cols``
    that a fit of ``y`` keeps once its singular columns are dropped."""
    fit, _ = _fit_dropping_singular(np.column_stack([c for c, _ in cols]), y,
                                    [nm for _, nm in cols], "shrinkage")
    by_name = {nm: c for c, nm in cols}
    return np.column_stack([by_name[nm] for nm in fit.names]), fit.names


def _cubic(values, label):
    return tuple(zip(powers(values), (label, f"{label}^2", f"{label}^3")))


@dataclass
class BalanceStep:
    label: str
    lr_stat: float | None
    df: int
    p_value: float | None
    dropped_columns: tuple
    skipped: bool = False


@dataclass
class BalanceReport:
    step1: BalanceStep
    step2: BalanceStep
    shrinkage: dict

    def rejects(self, alpha=0.05):
        """Two-step decision at family level ``alpha``: each step tests at
        alpha/2 (Bonferroni), rejecting if either step rejects.  Skipped
        steps never reject."""
        cut = alpha / 2.0
        return any(
            (not step.skipped) and step.p_value < cut
            for step in (self.step1, self.step2)
        )

    def to_payload(self):
        return jsonable({
            "step1": self.step1,
            "step2": self.step2,
            "rejects_at_0.05": self.rejects(0.05),
            "shrinkage": self.shrinkage,
        })

    def format_table(self):
        lines = ["balance check (likelihood-ratio tests)",
                 f"{'step':<28}{'LR':>10}{'df':>5}{'p':>10}"]
        for step in (self.step1, self.step2):
            if step.skipped:
                lines.append(f"{step.label:<28}{'skipped (df 0)':>25}")
            else:
                lines.append(
                    f"{step.label:<28}{step.lr_stat:>10.3f}{step.df:>5d}{step.p_value:>10.4f}"
                )
        if self.shrinkage:
            lines.append("")
            lines.append(f"{'covariate':<20}{'|z coef| w/o':>14}{'with':>10}{'ratio':>8}"
                         f"{'|g coef| w/o':>14}{'with':>10}{'ratio':>8}")
            for name, row in self.shrinkage.items():
                zc, gc = row["z"], row["g"]
                lines.append(
                    f"{name:<20}{abs(zc['without']):>14.4f}{abs(zc['with']):>10.4f}"
                    f"{_fmt_ratio(zc['ratio']):>8}"
                    f"{abs(gc['without']):>14.4f}{abs(gc['with']):>10.4f}"
                    f"{_fmt_ratio(gc['ratio']):>8}"
                )
        return "\n".join(lines)


def _fmt_ratio(r):
    return "-" if r is None else f"{r:.3f}"


def _lr_step(label, y, restricted_cols, added_cols):
    """Fit restricted and restricted+added designs; LR-test the addition.

    Columns dropped from the restricted design (singular polynomial bases)
    stay dropped in the full design so the models remain nested; added
    covariate columns that are collinear with the restricted design are
    dropped with a warning and reduce the test's degrees of freedom.
    """
    names_r = [nm for _, nm in restricted_cols]
    x_r = np.column_stack([col for col, _ in restricted_cols])
    fit_r, dropped_r = _fit_dropping_singular(x_r, y, names_r, label)

    added = [(col, nm) for col, nm in added_cols]
    if not added:
        return BalanceStep(label=label, lr_stat=None, df=0, p_value=None,
                           dropped_columns=dropped_r, skipped=True)
    kept_r = list(fit_r.names)
    cols_full = [(x_r[:, names_r.index(nm)], nm) for nm in kept_r]
    cols_full += added
    x_f = np.column_stack([col for col, _ in cols_full])
    fit_f, dropped_f = _fit_dropping_singular(x_f, y, [nm for _, nm in cols_full], label)
    df_added = len(fit_f.names) - len(kept_r)
    dropped = dropped_r + dropped_f
    if df_added == 0:
        return BalanceStep(label=label, lr_stat=None, df=0, p_value=None,
                           dropped_columns=dropped, skipped=True)
    stat, p = lr_test(fit_r.rss, fit_f.rss, fit_r.n, df_added)
    return BalanceStep(label=label, lr_stat=stat, df=df_added, p_value=p,
                       dropped_columns=dropped, skipped=False)


def _standardized_coef(fit, term, sd_term, sd_response):
    if sd_response == 0:
        return 0.0
    return fit.coef(term) * sd_term / sd_response


def balance_check(dataset, gps, scores):
    """Two-step regression diagnostic on the fitted scores.

    Step 1 tests whether the individual covariates still explain the
    transformed individual treatment once a cubic of the individual score is
    conditioned on; step 2 does the same for the neighborhood treatment
    given the individual treatment and a cubic of the neighborhood score.
    """
    g = dataset.require_g()
    zstar = boxcox_apply(dataset.z, gps.boxcox.k)
    ones = np.ones(dataset.n)

    xz = dataset.covariate_matrix(list(gps.x_z))
    step1 = _lr_step(
        "individual score",
        zstar,
        [(ones, "const"), *_cubic(scores.phi, "phi")],
        [(xz[:, j], nm) for j, nm in enumerate(gps.x_z)],
    )

    xg = dataset.covariate_matrix(list(gps.x_g))
    step2 = _lr_step(
        "neighborhood score",
        g,
        [(ones, "const"), (dataset.z, "z"), *_cubic(scores.lam, "lambda")],
        [(xg[:, j], nm) for j, nm in enumerate(gps.x_g)],
    )

    # per-covariate treatment coefficients with vs without the scores
    shrinkage = {}
    sd_z, sd_g = float(np.std(dataset.z)), float(np.std(g))
    score_cols = [*_cubic(scores.phi, "phi"), *_cubic(scores.lam, "lambda")]
    base_cols = [(ones, "const"), (dataset.z, "z"), (g, "g")]
    names = tuple(dict.fromkeys((*gps.x_z, *gps.x_g)))
    if names:
        # which columns are singular depends on the design alone: find and
        # log them once per design, on the first covariate's fit
        first = dataset.covariates[names[0]]
        designs = [_nonsingular_design(cols, first) for cols in (base_cols, base_cols + score_cols)]
    for name in names:
        xk = dataset.covariates[name]
        sd_x = float(np.std(xk))
        fit_wo, fit_w = (fit_ols(x, xk, names=kept) for x, kept in designs)
        row = {}
        for treat, sd_t in (("z", sd_z), ("g", sd_g)):
            without = _standardized_coef(fit_wo, treat, sd_t, sd_x) if sd_x > 0 else 0.0
            with_ = _standardized_coef(fit_w, treat, sd_t, sd_x) if sd_x > 0 else 0.0
            ratio = abs(with_) / abs(without) if abs(without) > 1e-12 else None
            row[treat] = {"without": without, "with": with_, "ratio": ratio}
        shrinkage[name] = row

    return BalanceReport(step1=step1, step2=step2, shrinkage=shrinkage)
