"""Dose-response estimation for continuous treatments under network interference."""

from .balance import BalanceReport, balance_check, chi2_sf, lr_test
from .bootstrap import BootstrapBands, bootstrap_drf
from .dataset import PanelDataset, add_neighborhood_covariate, attach_exposure
from .jps import (
    ContrastSpec,
    DrfGrid,
    EffectReport,
    GpsFit,
    GridPolicy,
    JpsConfig,
    OutcomeFit,
    PropensityScores,
    effects,
    fit_outcome,
    fit_treatment_models,
    impute_drf,
    predict_scores,
    run_jps,
    run_naive,
)
from .linear_model import (
    LinearFit,
    build_outcome_matrix,
    fit_ols,
    normal_density,
)
from .network import (
    AdjacencyView,
    NeighborhoodSummarySpec,
    build_adjacency,
    neighborhood_covariate,
)
from .synth import OracleDrf, OutcomeRule, Scenario, generate, oracle_drf
from .transforms import BoxCoxFit, boxcox_apply, boxcox_zero_skew, skewness

__version__ = "0.1.0"
