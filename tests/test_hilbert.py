"""Tests of the conjugate-function formulas against the PV oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mudk.boundary import parameter_grid
from mudk.discretize import StepQuantile, build_measure
from mudk.distributions import Beta, Discrete, Mixture, Uniform
from mudk.hilbert import (_MAX_COLS, _NEAR_CELLS, _NEAR_POLE, POLE_RADIUS,
                          OracleConvergenceError, PoleError, _block_shape,
                          _fold, _jump_sum, hilbert_indicator,
                          hilbert_pv_oracle, hilbert_step_quantile, pole_gap,
                          pole_levels)

# independently frozen: adaptive PV quadrature agrees to ~5e-11
INDICATOR_AT_HALF_ONE_TWO = 0.12788601940419692
# Im of -(4/pi) atan(e^{i pi/4}), the conformal value for the unit strip
STRIP_AT_QUARTER = -0.5610998523391801


def _band(x, a, b):
    r = np.abs(np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi)
    return ((a < r) & (r < b)).astype(float)


def test_indicator_frozen_value():
    assert hilbert_indicator(0.5, 1.0, 2.0) == pytest.approx(
        INDICATOR_AT_HALF_ONE_TWO, abs=1e-12)


def test_indicator_matches_pv_oracle():
    cases = [(0.5, 1.0, 2.0), (0.2, 2.8, -1.3), (1.0, 1.5, 0.4)]
    for a, b, u in cases:
        pv = hilbert_pv_oracle(lambda x: _band(x, a, b), u,
                               jumps=(-b, -a, a, b))
        assert hilbert_indicator(a, b, u) == pytest.approx(pv, abs=1e-7)


def test_indicator_is_odd():
    u = np.linspace(0.1, 3.0, 17)
    left = hilbert_indicator(0.7, 2.1, -u)
    right = hilbert_indicator(0.7, 2.1, u)
    np.testing.assert_allclose(left, -right, atol=1e-14)


def test_indicator_band_validation():
    for a, b in ((-0.1, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 4.0)):
        with pytest.raises(ValueError):
            hilbert_indicator(a, b, 0.5)


def test_indicator_full_circle_is_zero():
    # the even indicator over all of (0, pi) is constant 1: conjugate 0
    u = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(hilbert_indicator(0.0, np.pi, u), 0.0,
                               atol=1e-14)


def test_indicator_pole_guard():
    with pytest.raises(PoleError):
        hilbert_indicator(0.5, 1.0, 0.5)
    with pytest.raises(PoleError):
        hilbert_indicator(0.5, 1.0, -1.0 + 1e-10)
    # just outside the guard radius evaluates fine
    assert np.isfinite(hilbert_indicator(0.5, 1.0, 0.5 + 2e-9))


def test_pole_levels_of_uniform_steps():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    np.testing.assert_allclose(pole_levels(sq), [0.2, 0.4, 0.6, 0.8])


def test_pole_levels_last_step_holds_to_level_one():
    # past its mass 0.8 the last step holds its value: no pole at 0.8
    sub = StepQuantile(np.array([0.0, 0.4, 0.8]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(pole_levels(sub), [0.4])


def test_step_quantile_strip_frozen_value():
    sq = build_measure(Discrete([(-1.0, 0.5), (1.0, 0.5)]), 2)
    got = hilbert_step_quantile(sq, np.pi / 4)
    assert float(got) == pytest.approx(STRIP_AT_QUARTER, abs=1e-13)


def test_step_quantile_strip_matches_conformal_map():
    """The two-atom domain is the strip of the map -(4/pi) atan(z)."""
    sq = build_measure(Discrete([(-1.0, 0.5), (1.0, 0.5)]), 2)
    theta = np.linspace(0.05, np.pi - 0.05, 40)
    theta = theta[np.abs(theta - np.pi / 2) > 0.03]  # clear of the pole
    got = hilbert_step_quantile(sq, theta)
    expect = np.imag(-(4.0 / np.pi) * np.arctan(np.exp(1j * theta)))
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_step_quantile_is_odd_and_scales_linearly():
    sq = build_measure(Uniform(-1.0, 1.0), 7)
    u = np.linspace(0.11, 2.9, 23)
    h = hilbert_step_quantile(sq, u)
    np.testing.assert_allclose(hilbert_step_quantile(sq, -u), -h, atol=1e-13)
    doubled = StepQuantile(sq.breakpoints, 2.0 * sq.values)
    np.testing.assert_allclose(hilbert_step_quantile(doubled, u), 2.0 * h,
                               rtol=1e-12)


def test_step_quantile_negative_on_upper_levels():
    # boundary convention: the positive-parameter half lies below the axis
    sq = build_measure(Uniform(-1.0, 1.0), 30)
    t = np.arange(1, 103) / 103.0  # coprime to the 30 pole levels
    vals = hilbert_step_quantile(sq, np.pi * t)
    assert np.all(vals < 0.0)


def test_step_quantile_matches_pv_oracle():
    sq = build_measure(Uniform(-1.0, 1.0), 4)

    def even_quantile(x):
        r = np.abs(np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi)
        out = np.empty_like(r)
        flat = r.ravel()
        res = np.array([sq.eval(max(v / np.pi, 1e-15)) if v > 0 else sq.values[0]
                        for v in flat])
        return res.reshape(r.shape)

    jumps = [s * np.pi for s in (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)]
    for u in (0.9, 1.7, -2.3):
        pv = hilbert_pv_oracle(even_quantile, u, jumps=jumps)
        got = float(hilbert_step_quantile(sq, u))
        assert got == pytest.approx(pv, abs=1e-7)


def test_step_quantile_pole_guard():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    with pytest.raises(PoleError):
        hilbert_step_quantile(sq, np.pi * 0.4)


def test_no_pole_at_full_mass_level():
    # the level u = pi (total mass 1) is regular: D(pi) = 0 cancels it
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    val = hilbert_step_quantile(sq, np.pi * (1.0 - 1e-13))
    assert np.isfinite(val)


def test_pv_oracle_on_smooth_function():
    # conjugate of sin is -cos under this kernel convention
    for u in (0.3, 1.2, 2.5):
        pv = hilbert_pv_oracle(np.sin, u)
        assert pv == pytest.approx(-np.cos(u), abs=1e-8)


def test_pv_oracle_reports_nonconvergence():
    # an impossible spread tolerance: extrapolations drift at roundoff scale
    with pytest.raises(OracleConvergenceError):
        hilbert_pv_oracle(np.sin, 0.7, spread_tol=1e-18)


# ------------------------------------------- pole guard and blocked kernel


def _brute_wrap_distance(u, poles):
    diff = np.asarray(u, dtype=float)[..., None] - np.asarray(poles, dtype=float)
    return np.min(np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi), axis=-1)


def _exact_wrap_distance(u, poles):
    """Distance from each finite u to the poles modulo the float 2 pi, in
    exact rational arithmetic: only the final conversion rounds, where the
    float brute force above errs by up to about 1.1e-15 at u = +-pi."""
    two_pi = 2 * Fraction(np.pi)

    def gap(x, p):
        d = abs(Fraction(x) - Fraction(p)) % two_pi
        return min(d, two_pi - d)
    return np.array([float(min(gap(x, p) for p in poles)) for x in u])


def _dense_hilbert(sq, u):
    """Reference: the whole (points x jumps) log-sin matrix at once.

    The internal breakpoints are read at min(s, 1); the last one is
    level 1, where the last step ends and no term is added.
    """
    theta = np.pi * np.minimum(sq.breakpoints[1:-1], 1.0)
    coeff = np.diff(sq.values)
    live = coeff != 0.0
    theta, coeff = theta[live], coeff[live]
    def L(t):
        return np.log(np.abs(np.sin(0.5 * t)))

    D = L(u[:, None] - theta[None, :]) - L(u[:, None] + theta[None, :])
    return (D @ coeff) / np.pi


@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=40),
       levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_wrap_distance_matches_brute_force(u, levels):
    # the guard's distance: the fold's gap to the jump angles pi s, s in [0, 1],
    # is the distance to the symmetric pole set +-pi s modulo 2 pi
    theta = np.sort(np.pi * np.array(levels))
    np.testing.assert_allclose(
        pole_gap(_fold(np.array(u)), theta),
        _exact_wrap_distance(u, np.concatenate((theta, -theta))), rtol=0, atol=1e-15)


def test_wrap_distance_scalar_empty_and_poleless():
    d = pole_gap(_fold(0.25), np.array([1.0]))
    assert np.shape(d) == () and d == pytest.approx(0.75, abs=1e-15)
    assert pole_gap(_fold(np.array([])), np.array([1.0])).shape == (0,)
    np.testing.assert_array_equal(pole_gap(_fold(np.array([0.1, 2.0])), np.array([])),
                                  [np.inf, np.inf])
    # wraps across +-pi: just past +-pi, the nearer pole is the mirror -+theta
    d = pole_gap(_fold(np.array([np.pi + 1e-3, -np.pi - 1e-3])), np.array([np.pi - 3e-3]))
    np.testing.assert_allclose(d, [2e-3, 2e-3], rtol=1e-9)


# offsets from a pole, in units of POLE_RADIUS, kept clear of the guard's edge
_POLE_OFFSETS = (0.0, 1e-3, 0.3, -0.3, 3.0, -3.0, 1e3, -1e6)


@st.composite
def _guard_cases(draw):
    """Jump levels, and angles: copies of +-pi s_j shifted by 2 pi k and a
    small offset, free angles and angles that are not finite; a scalar,
    an empty array or none of the poles among them."""
    levels = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=6))))
    near = st.tuples(st.integers(0, 5), st.sampled_from((1.0, -1.0)),
                     st.integers(-2, 2), st.sampled_from(_POLE_OFFSETS))
    free = st.floats(-10.0, 10.0)
    wild = st.sampled_from((np.nan, np.inf, -np.inf))
    u = []
    for kind, value in draw(st.lists(st.one_of(near.map(lambda v: ("near", v)),
                                               free.map(lambda v: ("free", v)),
                                               wild.map(lambda v: ("wild", v))),
                                     max_size=12)):
        if kind != "near":
            u.append(value)
        elif levels:
            j, sign, k, offset = value
            u.append(sign * np.pi * levels[j % len(levels)] + 2.0 * np.pi * k
                     + offset * POLE_RADIUS)
    if u and draw(st.booleans()):
        return levels, u[0]
    return levels, np.array(u)


@settings(max_examples=300, deadline=None)
@given(_guard_cases())
@example(([0.4], 0.4 * np.pi + 4.0 * np.pi))             # a wrapped copy, scalar
@example(([0.4], -0.4 * np.pi - 2.0 * np.pi + 1e-10))    # the mirror pole, wrapped
@example(([0.2, 0.7], np.array([])))                     # no angles
@example(([], np.array([0.0, np.pi, 1.0])))              # no poles
@example(([0.5], np.array([np.nan, np.inf, -np.inf, 0.5 * np.pi])))
def test_pole_guard_refuses_exactly_the_angles_near_a_pole(case):
    """`_jump_sum` and `hilbert_step_quantile` refuse an angle within
    POLE_RADIUS of a pole +-pi s_j (mod 2 pi) and evaluate every other:
    the brute-force distance to the poles decides which."""
    levels, u = case
    theta = np.pi * np.array(levels)
    with np.errstate(invalid="ignore"):
        d = (_brute_wrap_distance(u, np.concatenate((theta, -theta))) if levels
             else np.full(np.shape(u), np.inf))
    assume(not np.any((d > 0.5 * POLE_RADIUS) & (d < 2.0 * POLE_RADIUS)))
    sq = StepQuantile(np.concatenate(([0.0], levels, [1.0])),
                      np.arange(len(levels) + 1.0))
    for evaluate in (lambda: _jump_sum(u, theta, np.ones(theta.size)),
                     lambda: hilbert_step_quantile(sq, u)):
        with np.errstate(invalid="ignore"):
            if np.any(d < POLE_RADIUS):
                with pytest.raises(PoleError, match="logarithmic pole"):
                    evaluate()
                continue
            out = evaluate()
        assert np.shape(out) == np.shape(u)
        assert isinstance(out, float) == (np.ndim(u) == 0)
        # without jumps the sum is empty: 0 even at an angle that is not finite
        np.testing.assert_array_equal(np.isfinite(out), np.isfinite(u) | (not levels))


def test_pole_gap_is_the_sorted_neighbour_distance():
    poles = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(pole_gap(np.array([0.0, 0.3, 0.52, 2.0]), poles),
                               [0.1, 0.2, 0.02, 1.1], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(pole_gap(np.array([0.2, 0.7]), np.array([])),
                                  [np.inf, np.inf])
    assert pole_gap(np.array([]), poles).shape == (0,)


def test_nonfinite_angles_evaluate_to_nan_without_pole_error():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    u = np.array([np.nan, np.inf, -np.inf, 2.0])
    with np.errstate(invalid="ignore"):
        d = pole_gap(_fold(u), np.array([0.4 * np.pi]))
        h = hilbert_step_quantile(sq, u)
        g = hilbert_indicator(0.5, 1.0, u)
    for out in (d, h, g):
        assert np.all(np.isnan(out[:3])) and np.isfinite(out[3])


def test_step_quantile_scalar_empty_and_single_point():
    sq = build_measure(Uniform(-1.0, 1.0), 5)
    assert isinstance(hilbert_step_quantile(sq, 1.0), float)
    assert hilbert_step_quantile(sq, np.array([])).shape == (0,)
    one = hilbert_step_quantile(sq, np.array([1.0]))
    assert one.shape == (1,) and one[0] == hilbert_step_quantile(sq, 1.0)
    with pytest.raises(PoleError):
        hilbert_step_quantile(sq, np.array([np.pi * 0.6]))


def test_indicator_without_poles_at_band_ends():
    # a = 0 and b = pi carry no pole, so u = 0 and u = pi evaluate
    assert hilbert_indicator(0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert np.isfinite(hilbert_indicator(1.0, np.pi, np.pi))
    np.testing.assert_allclose(hilbert_indicator(0.0, np.pi, [0.0, np.pi]),
                               0.0, atol=1e-14)
    assert hilbert_indicator(0.0, np.pi, np.array([])).shape == (0,)
    # the remaining band edge is still guarded
    with pytest.raises(PoleError):
        hilbert_indicator(0.0, 1.0, -1.0)
    with pytest.raises(PoleError):
        hilbert_indicator(1.0, np.pi, 1.0 + 1e-10)


def test_pole_levels_skip_zero_jumps():
    sq = StepQuantile(np.array([0.0, 0.3, 0.6, 0.9]), np.array([-1.0, -1.0, 0.0]))
    np.testing.assert_allclose(pole_levels(sq), [0.6])


@pytest.mark.parametrize("sq", [
    build_measure(Uniform(-1.0, 1.0), 200),
    build_measure(Beta(2.0, 5.0).center(), 300, scheme="pdf"),
    build_measure(Mixture([(0.5, Uniform(-1.0, 1.0)),
                           (0.5, Discrete([(0.0, 1.0)]))]), 150),
], ids=["uniform", "beta-pdf", "atom"])
def test_blocked_kernel_matches_dense_oracle(sq):
    rows, cols = _block_shape(pole_levels(sq).size)
    assert cols == pole_levels(sq).size
    for m in (rows - 1, rows, rows + 1, 2 * rows + 1):
        u = np.pi * parameter_grid(sq, m)
        ref = _dense_hilbert(sq, u)
        got = hilbert_step_quantile(sq, u)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_column_blocks_match_dense_oracle():
    """Past _MAX_COLS jumps a row is summed in two column blocks."""
    sq = build_measure(Uniform(-1.0, 1.0), _MAX_COLS + 2)
    rows, cols = _block_shape(pole_levels(sq).size)
    assert (rows, cols) == (1, _MAX_COLS) and pole_levels(sq).size == cols + 1
    u = np.pi * parameter_grid(sq, 3)
    ref = _dense_hilbert(sq, u)
    got = hilbert_step_quantile(sq, u)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_near_pole_cells_match_the_two_log_form():
    """Angle addition cancels near a pole; those cells take the direct form.

    Points 1e-8 to 1e-2 from every pole of the atom mixture, on both sides
    of +theta and of -theta.  Without the direct form the error is about
    5e-11 of max|H|.
    """
    sq = build_measure(Mixture([(0.5, Uniform(-1.0, 1.0)),
                                (0.5, Discrete([(0.0, 1.0)]))]), 150)
    theta = np.pi * pole_levels(sq)
    gap = 10.0 ** -np.arange(2.0, 9.0)
    assert gap.max() <= _NEAR_POLE
    u = (theta[:, None, None] + np.array([-1.0, 1.0])[:, None] * gap).ravel()
    u = np.concatenate((u, -u))
    ref = _dense_hilbert(sq, u)
    got = hilbert_step_quantile(sq, u)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_pole_free_band_ends_contribute_exactly_zero():
    """a = 0 and b = pi add no term, near a pole of the other end or not."""
    u = np.concatenate((np.linspace(-3.0, 3.0, 60), [0.0, np.pi, -np.pi],
                        1.0 + np.array([-1e-8, 1e-3, 0.02])))
    left = hilbert_indicator(0.0, 1.0, u)
    np.testing.assert_array_equal(left, -hilbert_indicator(1.0, np.pi, u))
    # one jump at b = 1 with weight -1, in the direct two-log form
    ref = -(np.log(np.abs(np.sin(0.5 * (u - 1.0)))) -
            np.log(np.abs(np.sin(0.5 * (u + 1.0))))) / np.pi
    assert np.max(np.abs(left - ref)) <= 1e-14 * np.max(np.abs(ref))
    np.testing.assert_array_equal(hilbert_indicator(0.0, np.pi, u), 0.0)


def test_point_order_does_not_change_the_values():
    """A permutation of the points permutes their values, bit for bit, and
    points whose folds are far from sorted still match the dense oracle."""
    sq = build_measure(Beta(2.0, 5.0).center(), 300, scheme="pdf")
    rows = _block_shape(pole_levels(sq).size)[0]
    u = np.pi * parameter_grid(sq, 2 * rows + 1)
    want = hilbert_step_quantile(sq, u)
    perm = np.random.default_rng(3).permutation(u.size)
    np.testing.assert_array_equal(hilbert_step_quantile(sq, u[perm]), want[perm])
    # -u and u - 2 pi fold onto u: interleaved, they are far from sorted
    mixed = np.stack((u, -u, u - 2.0 * np.pi)).T.ravel()
    ref = _dense_hilbert(sq, mixed)
    got = hilbert_step_quantile(sq, mixed)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _per_point_cases():
    """Step quantiles, angles, the points picked and the least near-pole
    cell count the widest picked point must have: seven points with ties,
    and their copies 2 pi away; 60 of 1024 grid points of centred
    beta(2,5) at n=2000; 20 of 256 grid points of a uniform law with one
    jump past _MAX_COLS, whose rows are summed in two column blocks; 256
    grid points of a step quantile with 3000 jumps in (0.5, 0.504) and
    three points among those jumps, whose near-pole cells fill more than
    one gather, so each is gathered on its own."""
    three = StepQuantile(np.array([0.0, 0.3, 0.6, 1.0]), np.array([-1.0, 0.0, 2.0]))
    seven = np.array([2.5, -0.4, 0.4, 1.3, 2.5, -2.5, 0.4])
    beta = build_measure(Beta(2.0, 5.0).center(), 2000)
    wide = build_measure(Uniform(-1.0, 1.0), _MAX_COLS + 2)
    levels = np.concatenate((np.linspace(0.0, 0.5, 50, endpoint=False),
                             0.5 + 0.004 * np.arange(3000) / 3000,
                             np.linspace(0.504, 1.0, 50)))
    cluster = StepQuantile(levels, np.arange(levels.size - 1.0))
    among = np.pi * (0.5 + 0.004 * np.array([1000.5, 1500.5, 2000.5]) / 3000)
    pick = np.random.default_rng(5).choice
    return [(three, np.concatenate((seven, seven + 2.0 * np.pi, seven - 2.0 * np.pi)),
             np.arange(21), 0),
            (beta, np.pi * parameter_grid(beta, 1024), pick(1024, 60, replace=False), 0),
            (wide, np.pi * parameter_grid(wide, 256), pick(256, 20, replace=False), 0),
            (cluster, np.concatenate((np.pi * parameter_grid(cluster, 256), among, -among)),
             np.arange(256, 262), _NEAR_CELLS + 1)]


@pytest.mark.parametrize("sq, u, picked, cells", _per_point_cases(),
                         ids=["seven-points", "beta-2000", "two-column-blocks",
                              "gathered-alone"])
def test_a_points_value_does_not_depend_on_the_call(sq, u, picked, cells):
    """Each value of one call equals the scalar call at that point, bit for
    bit: a point's near-pole cells are summed on their own, in a gather of
    their own when they fill one, and a row's sum does not depend on the
    other rows."""
    theta, fold = np.pi * pole_levels(sq), _fold(u[picked])
    near = (np.searchsorted(theta, fold + _NEAR_POLE, side="right")
            - np.searchsorted(theta, fold - _NEAR_POLE))
    assert near.max() >= cells
    got = hilbert_step_quantile(sq, u)
    np.testing.assert_array_equal(got[picked],
                                  [hilbert_step_quantile(sq, x) for x in u[picked]])
    ref = _dense_hilbert(sq, u[picked])
    assert np.max(np.abs(got[picked] - ref)) <= 1e-13 * np.max(np.abs(ref))
