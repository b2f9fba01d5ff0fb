"""Properties of every fit on random Gaussian designs, some with far-off components."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cdfpool import ForecastCase, Gaussian, LinkFunction, fit_blp, fit_glp, fit_slp, fit_tlp
from cdfpool.distributions import CDF_CLAMP
from cdfpool.fitting import GAIN_TOL, _build_design, _Weights

from conftest import family_derivs, make_gaussian_cases

FAMILIES = ("tlp", "slp", "blp", "glp-log", "glp-reciprocal", "glp-probit")


@st.composite
def gaussian_designs(draw):
    """J cases of k Gaussian components; the outcome comes from the near ones.

    Each component but the first may sit far below the outcome's component
    (3 to 4 times its sd of 2, give or take a case-by-case 0.5), so that its
    weight should vanish.  Designs
    with a component CDF value at the outcome below 1e-6 or at the clamp are
    rejected: the reciprocal link weights such a component on the scale of
    that value, far under the active set's 1e-8 and 1e-4 thresholds.
    """
    k = draw(st.integers(2, 4))
    J = draw(st.integers(40, 200))
    far = [None] + [draw(st.one_of(st.none(), st.floats(3.0, 4.0))) for _ in range(k - 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = [i for i in range(k) if far[i] is None]
    cases = []
    for _ in range(J):
        mu = rng.normal(scale=0.8, size=k)
        sd = 0.8 + rng.random(size=k)
        pick = near[rng.integers(len(near))]
        y = mu[pick] + sd[pick] * rng.standard_normal()
        for i in range(k):
            if far[i] is not None:
                mu[i], sd[i] = mu[pick] - 2.0 * far[i] + 0.5 * rng.standard_normal(), 2.0
        cases.append(ForecastCase(tuple(map(Gaussian, mu, sd)), y))
    F = _build_design(cases, "blp").b
    assume(F.min() > 1e-6 and F.max() < 1.0 - CDF_CLAMP)
    return cases


def _fit(family, cases):
    if family == "tlp":
        return fit_tlp(cases)
    if family == "slp":
        return fit_slp(cases)
    if family == "blp":
        return fit_blp(cases)
    return fit_glp(cases, LinkFunction(family.removeprefix("glp-")))


def _point_gradient(family, cases, spec):
    """Gradient of the log-score sum in (all k weights, log shape parameters)."""
    every = _Weights(len(spec.w), simplex=False)  # theta is every weight
    shape = [getattr(spec, name) for name in spec.shape_params]
    return family_derivs(family, cases)(every, np.append(spec.w, np.log(shape)))[1]


@settings(max_examples=40, deadline=None)
@given(gaussian_designs())
def test_every_fit_is_a_kkt_point_with_a_monotone_trace(cases):
    J, k = len(cases), len(cases[0].components)
    tol = 1e-6 * J
    for family in FAMILIES:
        res = _fit(family, cases)
        assert res.converged, family
        # the last step of a stage and a pin may lower ell by its noise
        assert np.all(np.diff(res.trace) >= -GAIN_TOL * J), family
        w = np.asarray(res.spec.w)
        g = _point_gradient(family, cases, res.spec)
        g_w, g_shape = g[:k], g[k:]
        if family == "glp-log" or family == "glp-probit":
            level = 0.0  # positive orthant: no sum constraint
        else:
            level = g_w[np.argmax(w)]  # simplex: one Lagrange multiplier
        free, pinned = w > 0.0, w == 0.0
        assert np.all(np.abs(g_w[free] - level) <= tol), (family, w, g_w)
        assert np.all(g_w[pinned] - level <= tol), (family, w, g_w)
        assert np.all(np.abs(g_shape) <= tol), (family, g_shape)
        assert res.grad_norm <= tol, family


def _location_scale(cases, a, s):
    return [ForecastCase(tuple(Gaussian(a + s * c.mu, s * c.sigma) for c in case.components),
                         a + s * case.y) for case in cases]


@settings(max_examples=30, deadline=None)
@given(gaussian_designs(), st.floats(-5.0, 5.0), st.floats(0.2, 5.0))
def test_tlp_and_blp_weights_invariant_under_location_scale(cases, a, s):
    moved = _location_scale(cases, a, s)
    for fit in (fit_tlp, fit_blp):
        assert_allclose(fit(moved).spec.w, fit(cases).spec.w, rtol=0, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(gaussian_designs(), st.randoms(use_true_random=False))
def test_tlp_weights_permute_with_the_components(cases, random):
    k = len(cases[0].components)
    perm = list(range(k))
    random.shuffle(perm)
    permuted = [ForecastCase(tuple(case.components[i] for i in perm), case.y) for case in cases]
    w = np.asarray(fit_tlp(cases).spec.w)
    assert_allclose(fit_tlp(permuted).spec.w, w[perm], rtol=0, atol=1e-7)


@pytest.mark.parametrize("family", ["slp", "glp-log", "glp-probit"])
@settings(max_examples=25, deadline=None)
@given(cases=gaussian_designs(), random=st.randoms(use_true_random=False))
def test_weights_and_shapes_permute_with_the_components(family, cases, random):
    # BLP and the reciprocal link are left out: their log scores have more than one
    # local maximum (the reciprocal's log(a w) - 2 log(b w) is not concave), and the
    # two component orders can converge to different ones (CHANGES.md, FOUND lines)
    k = len(cases[0].components)
    perm = list(range(k))
    random.shuffle(perm)
    permuted = [ForecastCase(tuple(case.components[i] for i in perm), case.y) for case in cases]
    base, moved = _fit(family, cases).spec, _fit(family, permuted).spec
    assert_allclose(moved.w, np.asarray(base.w)[perm], rtol=0, atol=1e-7)
    for name in base.shape_params:
        assert getattr(moved, name) == pytest.approx(getattr(base, name), rel=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
def test_derivatives_with_a_pinned_weight_match_finite_differences(family):
    # w_2 pinned at 0 and w_1 eliminated on the simplex, as after a pin
    cases = make_gaussian_cases(np.random.default_rng(17), J=60)
    simplex = family not in ("glp-log", "glp-probit")
    layout = _Weights(3, simplex, free=(2, 0))
    derivs = family_derivs(family, cases)
    weights_theta = [0.3] if simplex else [0.3, 0.5]  # w_3, then w_1 on the orthant
    theta = np.array(weights_theta + {"slp": [-0.2], "blp": [0.1, 0.3]}.get(family, []))
    _, g, H = derivs(layout, theta)
    step = 1e-6
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = step
        up, down = derivs(layout, theta + e), derivs(layout, theta - e)
        assert (up[0] - down[0]) / (2 * step) == pytest.approx(g[i], rel=1e-6, abs=1e-6)
        assert_allclose((up[1] - down[1]) / (2 * step), H[:, i], rtol=1e-4, atol=1e-4)
