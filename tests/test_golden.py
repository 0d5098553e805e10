"""Golden values of seeded runs.

The figures are pinned at rel=1e-12, so a refactor of the fit, the chain,
the prediction path or the study driver that moves a seeded result past
round-off fails here.  The sweep-end objectives and factors of an
unconverged fit are pinned bit for bit, since they decide convergence
and best-of-starts.
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
    gibbs,
    posterior_predictive,
    run_cell,
    simulate,
)
from reference import fit_augmented_oracle

GOLDEN_FIT_OBJECTIVE = 70.25624970479046
GOLDEN_SIGMA2 = [
    1.030009600801928, 1.0433322886185379, 0.8318994226178875, 0.9350473566154002,
    1.0052200502094593, 0.948923898393002, 0.8337067698280475, 1.0928949331326065,
    0.8070772910501028, 0.8337222934302049, 0.9393350601168481, 1.1192331313139599,
    0.8014502771895521, 1.1062891574984428, 1.1218977761354425, 1.3376439989262812,
    2.1177922450156847, 1.3410943626241276, 1.322351294658508, 1.568701045856864,
]
GOLDEN_LO = [
    2.8141366628142728, -6.20427091467762, -3.5811162888738814, -1.1152897061876217,
    -4.552344891122613, 0.007873502059323061, -0.5687633887161868, -2.099688346310502,
]
GOLDEN_HI = [
    6.698948392368068, -4.159778074748923, -0.34093843280130715, 1.6990810220331618,
    -0.4284719863036505, 3.854149292596908, 2.0150452968673975, 0.42990265427970836,
]
# run_cell on the grids/smoke.json shape: rpe, coverage, relative length
GOLDEN_CELL = (0.6764107015740317, 0.92, 2.9639084561290536)
# rank-4 fit of _data() stopped by max_iters=14 before converging: the
# explicit sweep-end objectives and the factors, pinned bit for bit
GOLDEN_SWEEP_OBJECTIVES = [
    189.8853825470636, 144.14576741760146, 109.56902503043807, 84.2467052777587,
    67.4465615617818, 57.51417391491065, 52.27937961098292, 49.80418197932687,
    48.710306851021144, 48.20590738051329, 47.87806449830081, 47.58836326796168,
    47.32506403239637, 47.082522001064845,
]
GOLDEN_SUBSTEPS = [
    48.147186992134664, 47.996649172962975, 47.9017491384989, 47.87806449830089,
    47.81927846193008, 47.68206372749691, 47.61523448111191, 47.588363267961626,
    47.527591885568626, 47.40006935369712, 47.351068868287825, 47.32506403239634,
    47.262372339400486, 47.143684459969535, 47.10637771412442, 47.082522001064774,
]
GOLDEN_FACTORS = [
    [[0.6158086516819845, 0.9650164624440938, 0.18768547322845833, -2.3691405544519855],
     [0.559926644641129, -1.4110753755884933, -0.5662366870204502, 0.8162000554222274],
     [0.7880729343708881, -0.5774218222226213, -0.20024388569760454, 1.7265117766167613],
     [-1.7369547863450658, 0.09807271521354355, 0.3512098870836278, 1.8828654882610898]],
    [[-0.5403052501112948, -1.5814946034165265, 0.985156990632113, -0.6859668672431686],
     [-0.7329719114401492, -0.15761472987138223, 0.6802688196288402, -0.5089273038361577],
     [0.27478262681502086, 1.670184456642352, -0.4932128666255163, 0.9409863802239841]],
    [[-0.811983476242806, -0.26157687626893683, -1.543582004953993, 0.134568846050149],
     [0.13086511490207078, -0.29672386164285747, -0.4289395298110396, -0.37053313058927456]],
    [[-0.9999204235310202, -1.6014191704387615, -0.8976928551769544, -1.080333225885266],
     [1.3284429465873502, -0.3596428018809855, -0.8681179120269258, -0.31438136838543534]],
]


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


def test_unconverged_fit_is_bit_identical():
    x, y = _data()
    res = fit(x, y, FitConfig(rank=4, lam=0.5, seed=5, max_iters=14))
    assert (res.iterations, res.converged) == (14, False)
    assert np.array_equal(res.objective_trace, GOLDEN_SWEEP_OBJECTIVES)
    for got, want in zip(res.coefficients.factors, GOLDEN_FACTORS, strict=True):
        assert np.array_equal(got, want)
    # the sub-step values come from the normal equations, equal up to round-off
    assert res.substep_trace == pytest.approx(GOLDEN_SUBSTEPS, rel=1e-12)


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
