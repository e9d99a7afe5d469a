import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import aligner
from difftts.audio import LOG_FLOOR


def test_single_phoneme_takes_all_frames():
    res = aligner.mas(np.zeros((1, 5)))
    np.testing.assert_array_equal(res.assignment, np.zeros(5))
    np.testing.assert_array_equal(res.durations, [5])


def test_square_instance_is_identity():
    res = aligner.mas(np.random.default_rng(0).standard_normal((4, 4)))
    np.testing.assert_array_equal(res.assignment, np.arange(4))
    np.testing.assert_array_equal(res.durations, np.ones(4))


def test_hand_two_by_three_split():
    # both feasible splits score -1; the late-switch tie-break keeps phoneme 0
    # through frame 1, so durations come out [2, 1]
    log_prior = np.array([[0.0, -1.0, -9.0], [-9.0, -1.0, 0.0]])
    res = aligner.mas(log_prior)
    np.testing.assert_array_equal(res.durations, [2, 1])
    brute = aligner.brute_force_align(log_prior)
    np.testing.assert_array_equal(brute.durations, [2, 1])
    assert res.log_likelihood == brute.log_likelihood == -1.0


def test_infeasible_when_frames_short():
    with pytest.raises(aligner.InfeasibleError):
        aligner.mas(np.zeros((3, 2)))


def test_brute_force_size_guard():
    with pytest.raises(aligner.InstanceTooLargeError):
        aligner.brute_force_align(np.zeros((7, 9)))


def test_result_invariants_enforced():
    with pytest.raises(ValueError):
        aligner.AlignmentResult(np.array([1, 0]), np.array([1, 1]), 0.0)
    with pytest.raises(ValueError):
        aligner.AlignmentResult(np.array([0, 0]), np.array([2, 0]), 0.0)


def test_tie_break_prefers_staying_on_current_phoneme():
    # constant prior: every feasible alignment ties; walking forward we stay
    # on the current phoneme until a switch is forced
    res = aligner.mas(np.zeros((3, 5)))
    brute = aligner.brute_force_align(np.zeros((3, 5)))
    np.testing.assert_array_equal(res.assignment, [0, 0, 0, 1, 2])
    np.testing.assert_array_equal(res.assignment, brute.assignment)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_mas_matches_brute_force(p, extra, seed):
    f = p + extra
    if f > 8:
        f = 8
    rng = np.random.default_rng(seed)
    log_prior = rng.standard_normal((p, f))
    fast = aligner.mas(log_prior)
    slow = aligner.brute_force_align(log_prior)
    assert fast.log_likelihood == slow.log_likelihood
    np.testing.assert_array_equal(fast.assignment, slow.assignment)


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_mas_with_quantized_ties_matches_brute_force(p, extra, seed):
    # integer-valued priors force frequent exact ties
    f = min(p + extra, 8)
    rng = np.random.default_rng(seed)
    log_prior = rng.integers(-2, 1, size=(p, f)).astype(float)
    fast = aligner.mas(log_prior)
    slow = aligner.brute_force_align(log_prior)
    assert fast.log_likelihood == slow.log_likelihood
    np.testing.assert_array_equal(fast.assignment, slow.assignment)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**31 - 1),
       st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_mas_shift_invariance(p, extra, seed, shift):
    f = min(p + extra, 8)
    log_prior = np.random.default_rng(seed).standard_normal((p, f))
    base = aligner.mas(log_prior)
    shifted = aligner.mas(log_prior + shift)
    np.testing.assert_array_equal(base.assignment, shifted.assignment)


def mas_reference(log_prior):
    # phoneme-major DP with a concatenated move column per frame: the
    # frame-major table must pick the same path from the same sums
    n_p, n_f = log_prior.shape
    q = np.full((n_p, n_f), -np.inf)
    q[0, 0] = log_prior[0, 0]
    for f in range(1, n_f):
        stay = q[:, f - 1]
        move = np.concatenate(([-np.inf], q[:-1, f - 1]))
        q[:, f] = log_prior[:, f] + np.maximum(stay, move)
    assignment = np.empty(n_f, dtype=np.int64)
    p = n_p - 1
    assignment[n_f - 1] = p
    for f in range(n_f - 1, 0, -1):
        stay = q[p, f - 1]
        move = q[p - 1, f - 1] if p > 0 else -np.inf
        if move >= stay:
            p -= 1
        assignment[f - 1] = p
    return assignment, q[n_p - 1, n_f - 1]


@given(st.integers(1, 40), st.integers(0, 260), st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_mas_bit_identical_to_phoneme_major_dp(p, extra, ties, seed):
    rng = np.random.default_rng(seed)
    shape = (p, p + extra)
    log_prior = rng.integers(-2, 1, size=shape).astype(float) if ties else rng.standard_normal(shape)
    want, dp_score = mas_reference(log_prior)
    got = aligner.mas(log_prior)
    assert got.assignment.tobytes() == want.tobytes()
    assert got.durations.tobytes() == np.bincount(want, minlength=p).astype(np.int64).tobytes()
    # the path score adds the same terms in the same frame order as the table
    assert got.log_likelihood == dp_score


def test_gaussian_log_prior_zero_at_match():
    mu = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 2.0], [0.0, 0.0]])
    lp = aligner.gaussian_log_prior(mu, target)
    assert lp[0, 0] == 0.0
    assert lp[0, 0] == lp[0].max()


def test_gaussian_log_prior_identical_mu_rows():
    mu = np.tile([[1.0, 1.0]], (3, 1))
    target = np.random.default_rng(1).standard_normal((4, 2))
    lp = aligner.gaussian_log_prior(mu, target)
    assert np.array_equal(lp[0], lp[1]) and np.array_equal(lp[1], lp[2])


def test_gaussian_log_prior_hand_case():
    mu = np.array([[0.0], [1.0]])
    target = np.array([[0.0], [1.0]])
    lp = aligner.gaussian_log_prior(mu, target)
    np.testing.assert_allclose(lp, [[0.0, -0.5], [-0.5, 0.0]])
    assert lp[0, 0] > lp[1, 0] and lp[1, 1] > lp[0, 1]


def einsum_log_prior(mu, target):
    """The direct form, through the P x F x n_mels difference tensor."""
    diff = np.asarray(target, np.float64)[None, :, :] - np.asarray(mu, np.float64)[:, None, :]
    return -0.5 * np.einsum("pfd,pfd->pf", diff, diff)


def assert_matches_einsum_form(mu, target):
    got = aligner.gaussian_log_prior(mu, target)
    want = einsum_log_prior(mu, target)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    if got.shape[0] <= got.shape[1]:
        np.testing.assert_array_equal(aligner.mas(got).durations, aligner.mas(want).durations)


@pytest.mark.parametrize("p, f, d", [(1, 1, 1), (1, 9, 3), (3, 7, 2), (40, 216, 80),
                                     (150, 860, 80), (17, 5, 80)])
def test_gaussian_log_prior_matches_the_einsum_form(p, f, d):
    rng = np.random.default_rng([p, f, d])
    mu = rng.standard_normal((p, d))
    target = rng.standard_normal((f, d)).astype(np.float32)
    assert_matches_einsum_form(mu, target)


@pytest.mark.parametrize("spread", [1.0, 0.1, 0.01])
def test_gaussian_log_prior_matches_the_einsum_form_near_the_log_floor(spread):
    # log-mels of near-silence: squared norms near 80 * 11.5^2 against distances
    # near 80 * spread^2, which an uncentred expansion loses to cancellation
    rng = np.random.default_rng(round(1 / spread))
    floor = np.log(LOG_FLOOR)
    mu = floor + spread * rng.standard_normal((40, 80))
    target = (floor + spread * rng.standard_normal((216, 80))).astype(np.float32)
    assert_matches_einsum_form(mu, target)


def test_gaussian_log_prior_memory_is_p_by_f():
    # 30 s at hop 256 with 450 tokens: the difference tensor alone is 744 MB
    rng = np.random.default_rng(0)
    mu = rng.standard_normal((450, 80))
    target = rng.standard_normal((2584, 80)).astype(np.float32)
    tracemalloc.start()
    try:
        aligner.gaussian_log_prior(mu, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
