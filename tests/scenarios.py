"""Scenarios that only the tests draw: a quadratic truth without spillover,
randomized treatments, and strong confounding for the balance check."""

from netjps.synth import OutcomeRule, Scenario


def scenario_quadratic(seed=0):
    """Spillover-free quadratic truth 1 + z - 0.3 z^2 (argmax at z = 5/3)."""
    return Scenario(
        n_units=750,
        n_periods=4,
        edge_prob=0.1,
        weight_log_mean=1.0,
        weight_log_sd=0.4,
        n_covariates=3,
        treatment_intercept=0.4,
        treatment_coefs=(0.2, 0.1, 0.05),
        treatment_sd=0.15,
        outcome=OutcomeRule(intercept=1.0, z=1.0, z2=-0.3),
        outcome_sd=0.02,
        seed=seed,
    )


def scenario_null(seed=0):
    """Randomized treatments: covariates drive neither Z nor the network."""
    return Scenario(
        n_units=400,
        n_periods=1,
        edge_prob=0.1,
        weight_log_mean=0.5,
        weight_log_sd=0.5,
        n_covariates=3,
        treatment_intercept=0.3,
        treatment_coefs=(0.0, 0.0, 0.0),
        treatment_sd=0.25,
        outcome=OutcomeRule(intercept=1.0, z=0.5, g=0.3, x=(0.1, 0.1, 0.1)),
        outcome_sd=0.2,
        seed=seed,
    )


def scenario_strong_confounding(seed=0):
    """Covariates strongly drive both treatments (balance power check)."""
    return Scenario(
        n_units=400,
        n_periods=1,
        edge_prob=0.1,
        weight_log_mean=0.5,
        weight_log_sd=0.5,
        weight_covariate_coef=0.8,
        n_covariates=3,
        treatment_intercept=0.3,
        treatment_coefs=(0.5, 0.3, -0.3),
        treatment_sd=0.15,
        outcome=OutcomeRule(intercept=1.0, z=0.5, g=0.3, x=(0.1, 0.1, 0.1)),
        outcome_sd=0.2,
        seed=seed,
    )
