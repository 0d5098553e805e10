"""Golden values of seeded runs.

The figures are pinned at rel=1e-12, so a refactor of the fit, the chain,
the prediction path or the study driver that moves a seeded result past
round-off fails here.
"""

import numpy as np
import pytest

from mwreg import (
    DenseTensor,
    FitConfig,
    GibbsConfig,
    SimSpec,
    credible_intervals,
    fit,
    fit_augmented_oracle,
    gibbs,
    posterior_predictive,
    run_cell,
    simulate,
)

GOLDEN_FIT_OBJECTIVE = 70.25624970479046
GOLDEN_SIGMA2 = [
    1.030009600801928, 1.0433322886185379, 0.8318994226178875, 0.9350473566154002,
    1.0052200502094593, 0.948923898393002, 0.8337067698280475, 1.0928949331326065,
    0.8070772910501028, 0.8337222934302049, 0.9393350601168481, 1.1192331313139599,
    0.8014502771895521, 1.1062891574984428, 1.1218977761354425, 1.3376439989262812,
    2.1177922450156847, 1.3410943626241276, 1.322351294658508, 1.568701045856864,
]
GOLDEN_LO = [
    2.986120763532938, -7.074693680385997, -3.534307654731565, -1.1896634809834663,
    -3.93946472036877, 0.6495666286819046, -0.9902556397474878, -2.204648688907272,
]
GOLDEN_HI = [
    6.310404943565415, -2.9219365082023296, -0.018053830544282244, 2.885946271132719,
    -0.1680343078715742, 3.8417001054676554, 1.17942175105629, 1.0774311967595458,
]
# run_cell on the grids/smoke.json shape: rpe, coverage, relative length
GOLDEN_CELL = (0.6764107015740317, 0.9025, 2.9564043245628566)


def _data():
    x, y, _ = simulate(SimSpec(n=20, in_dims=(4, 3), out_dims=(2, 2), rank=2, snr=2.0, seed=11))
    return x, y


def test_fit_and_oracle_objectives():
    x, y = _data()
    cfg = FitConfig(rank=2, lam=0.5, seed=5)
    for fitter in (fit, fit_augmented_oracle):
        res = fitter(x, y, cfg)
        assert res.objective_trace[-1] == pytest.approx(GOLDEN_FIT_OBJECTIVE, rel=1e-12)
        assert (res.iterations, res.converged) == (29, True)


def test_gibbs_sigma2_and_interval_endpoints():
    x, y = _data()
    mode = fit(x, y, FitConfig(rank=2, lam=0.5, seed=5))
    draws = gibbs(x, y, GibbsConfig(rank=2, n_samples=20, lam=0.5, seed=6), mode_fit=mode)
    assert draws.sigma2s.tolist() == pytest.approx(GOLDEN_SIGMA2, rel=1e-12)
    x_new = DenseTensor(np.random.default_rng(8).standard_normal((2, 4, 3)))
    lo, hi = credible_intervals(posterior_predictive(x_new, draws, 7), 0.9)
    assert lo.array.ravel(order="F").tolist() == pytest.approx(GOLDEN_LO, rel=1e-12)
    assert hi.array.ravel(order="F").tolist() == pytest.approx(GOLDEN_HI, rel=1e-12)


def test_run_cell_on_smoke_shape():
    spec = SimSpec(n=30, in_dims=(4, 3), out_dims=(2, 2), rank=2, snr=1.0, seed=7)
    cell = run_cell(spec, 2, 0.5, 1, test_n=100, gibbs_samples=50)
    got = (cell.rpe, cell.coverage_rate, cell.mean_interval_length)
    assert got == pytest.approx(GOLDEN_CELL, rel=1e-12)
