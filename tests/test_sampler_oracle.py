"""The reverse-time loop against the exact score of Gaussian data.

For x0 ~ N(mu + a, s^2 I) the forward marginal at t is Gaussian with mean
mu + m0 a and variance m0^2 s^2 + sigma_t^2, so its score is known in closed
form (Song et al., "Score-Based Generative Modeling through SDEs", ICLR
2021).  ``diffusion.integrate`` is driven with that score, with no network.
"""

import numpy as np

from difftts import diffusion
from difftts.config import NoiseSchedule

SCHED = NoiseSchedule()
A, S = 0.7, 2.0   # the data's offset from mu and its standard deviation
COLUMNS = 200_000


def exact_score(mu):
    def score(x, t):
        m0, _, sigma = SCHED.coefficients(t)
        return -(x - mu - m0 * A) / (m0 * m0 * S * S + sigma * sigma)
    return score


def prior_draw(seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-4.0, 1.0, COLUMNS)
    return mu, mu + rng.standard_normal(COLUMNS)


def test_exact_score_recovers_the_data_mean():
    mu, x1 = prior_draw(0)
    out = diffusion.integrate(exact_score(mu), x1, mu, SCHED, diffusion.GuidanceConfig().steps)
    assert out.dtype == np.float64
    assert abs(np.mean(out - mu) - A) < 0.01


def test_one_step_matches_its_closed_form():
    # one step from t=1 to t_min; with y = x - mu and v the marginal
    # variance, y' = y (1 + h beta / 2) - h beta (y - m0 a) / v
    mu, x1 = prior_draw(1)
    out = diffusion.integrate(exact_score(mu), x1, mu, SCHED, 1)
    h, beta = 1.0 - SCHED.t_min, SCHED.beta(1.0)
    m0, _, sigma = SCHED.coefficients(1.0)
    y = x1 - mu
    want = mu + y * (1.0 + 0.5 * h * beta) - h * beta * (y - m0 * A) / (m0 * m0 * S * S + sigma * sigma)
    # relative to the largest value: single entries that cancel to near 0
    # differ by an ulp of the terms, not of the result
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))
