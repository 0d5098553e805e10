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
    189.88538254706364, 144.14576741760146, 109.56902503043813, 84.24670527775876,
    67.4465615617819, 57.514173914910856, 52.27937961098317, 49.80418197932714,
    48.710306851021414, 48.20590738051358, 47.87806449830111, 47.58836326796199,
    47.32506403239669, 47.08252200106515,
]
GOLDEN_SUBSTEPS = [
    48.14718699213501, 47.996649172963345, 47.901749138499234, 47.87806449830111,
    47.81927846193036, 47.68206372749715, 47.615234481112324, 47.58836326796199,
    47.52759188556894, 47.4000693536975, 47.35106886828814, 47.32506403239669,
    47.2623723394007, 47.143684459969855, 47.106377714124754, 47.08252200106515,
]
GOLDEN_FACTORS = [
    [[0.6158086516820139, 0.9650164624440732, 0.18768547322844129, -2.3691405544519397],
     [0.5599266446410557, -1.4110753755884053, -0.5662366870204002, 0.8162000554220108],
     [0.7880729343708655, -0.5774218222225846, -0.2002438856975644, 1.7265117766166922],
     [-1.7369547863450447, 0.09807271521348933, 0.3512098870836126, 1.882865488261211]],
    [[-0.5403052501112859, -1.5814946034165296, 0.9851569906321314, -0.6859668672431681],
     [-0.7329719114401494, -0.1576147298713573, 0.6802688196288649, -0.5089273038361483],
     [0.27478262681500787, 1.6701844566423323, -0.4932128666254755, 0.9409863802239951]],
    [[-0.8119834762428095, -0.2615768762689459, -1.543582004954009, 0.13456884605013292],
     [0.13086511490207475, -0.29672386164285836, -0.4289395298110799, -0.37053313058927634]],
    [[-0.9999204235310215, -1.6014191704387768, -0.8976928551769894, -1.080333225885266],
     [1.328442946587319, -0.359642801880933, -0.8681179120268384, -0.3143813683854242]],
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
