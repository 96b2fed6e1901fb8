"""Tests of the exit-sampling machinery and the KS comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudk.boundary import (BoundaryPolyline, boundary_points,
                           normalize_support, scale_domain)
from mudk.discretize import build_measure
from mudk.distributions import Beta, Discrete, Exponential, Mixture, Uniform
import mudk.verify_mc as verify_mc
from mudk.verify_mc import (ExitSampleSet, TopologyError, _comb, _lower_chain,
                            _nearest_tooth, ks_distance, point_in_domain,
                            simulate_exit)


def box_polyline(half_width, depth):
    """Rectangle [-w, w] x (-d, d) as a four-point boundary polyline."""
    pts = np.array([
        [-0.75, half_width, depth],
        [-0.25, -half_width, depth],
        [0.25, -half_width, -depth],
        [0.75, half_width, -depth],
    ])
    return BoundaryPolyline(points=pts)


@pytest.fixture(scope="module")
def uniform_bp():
    return boundary_points(build_measure(Uniform(-1.0, 1.0), 30), 512)


# ---------------------------------------------------------------- membership

def test_origin_inside(uniform_bp):
    assert point_in_domain(uniform_bp, (0.0, 0.0))


def test_far_right_outside(uniform_bp):
    assert not point_in_domain(uniform_bp, (uniform_bp.x.max() + 1.0, 0.0))
    assert not point_in_domain(uniform_bp, (np.nan, 0.0))
    assert not point_in_domain(uniform_bp, (0.0, np.nan))


def test_gap_contains_full_vertical_strip():
    two_piece = Mixture([(0.5, Uniform(-1.0, -0.5)), (0.5, Uniform(0.5, 1.0))])
    bp = boundary_points(build_measure(two_piece, 30), 256)
    tall = 10.0 * np.abs(bp.y).max()
    assert point_in_domain(bp, (0.0, tall))
    assert point_in_domain(bp, (0.0, -tall))


def test_wall_membership_depends_on_depth(uniform_bp):
    walls = np.unique(uniform_bp.x)
    wall = walls[len(walls) // 2]  # an interior step value
    on_wall = np.abs(uniform_bp.y[uniform_bp.x == wall])
    tip, deep = on_wall.min(), on_wall.max()
    for sign in (1.0, -1.0):
        # the slit starts at the tooth's tip, not at its deepest rendered point
        assert point_in_domain(uniform_bp, (wall, sign * 0.999 * tip))
        assert not point_in_domain(uniform_bp, (wall, sign * tip))
        assert not point_in_domain(uniform_bp, (wall, sign * 0.999 * deep))
    assert not point_in_domain(uniform_bp, (wall, 2.0 * np.abs(uniform_bp.y).max()))


def test_extreme_wall_caps(uniform_bp):
    right = uniform_bp.x.max()
    assert not point_in_domain(uniform_bp, (right, 0.0))
    assert point_in_domain(uniform_bp, (right - 1e-6, 0.0))
    assert not point_in_domain(uniform_bp, (right, 2.0 * np.abs(uniform_bp.y).max()))


def _comb_by_loop(bp):
    """Oracle for _comb: one Python max per wall, outer walls open to the axis."""
    xs, ys = _lower_chain(bp)
    locs = np.unique(xs)
    tips = np.array([-np.max(ys[xs == v]) for v in locs])
    tips[[0, -1]] = 0.0
    return locs, tips


def _tooth_distances(locs, tips, px, py):
    """Distance from (px, py) to every tooth {x = locs[j], |y| >= tips[j]}."""
    return np.hypot(px - locs, np.maximum(tips - abs(py), 0.0))


@pytest.fixture(scope="module")
def membership_domains(uniform_bp):
    two_piece = Mixture([(0.5, Uniform(-1.0, -0.5)), (0.5, Uniform(0.5, 1.0))])
    atoms = Discrete([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    return [uniform_bp,
            boundary_points(build_measure(two_piece, 30), 256),
            boundary_points(build_measure(atoms, 3), 256),
            box_polyline(1.0, 1.0)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_membership_matches_brute_force_comb(membership_domains, data):
    bp = data.draw(st.sampled_from(membership_domains), label="domain")
    locs, tips = _comb(bp)
    ref_locs, ref_tips = _comb_by_loop(bp)
    assert np.array_equal(locs, ref_locs)
    assert np.array_equal(tips, ref_tips)

    i = data.draw(st.integers(0, locs.size - 1), label="wall")
    nxt = locs[min(i + 1, locs.size - 1)]
    tol = 1e-12 * (1.0 + float(np.max(np.abs(bp.points[:, 1:]))))
    px = data.draw(st.one_of(
        st.sampled_from([locs[i], locs[0], locs[-1], 0.5 * (locs[i] + nxt),
                         np.nextafter(locs[i], -np.inf),
                         np.nextafter(locs[i], np.inf),
                         locs[i] - tol, locs[i] + tol,
                         locs[i] - 2.0 * tol, locs[i] + 2.0 * tol, np.nan]),
        st.floats(locs[0] - 0.1, locs[-1] + 0.1)), label="x")
    tip = tips[i]
    py = data.draw(st.one_of(
        st.sampled_from([0.0, tip, -tip, np.nextafter(tip, -np.inf),
                         np.nextafter(tip, np.inf), tip - tol, tip + tol,
                         tip - 2.0 * tol, tip + 2.0 * tol, np.nan]),
        st.floats(-2.0 * tip - 1.0, 2.0 * tip + 1.0)), label="y")

    ref = _tooth_distances(locs, tips, px, py)
    if not np.isnan(px + py):
        best, near = _nearest_tooth(locs, tips, np.array([px]), np.array([py]))
        assert best[0] == ref.min()
        assert ref[near[0]] == best[0]
    inside = bool(locs[0] < px < locs[-1] and ref.min() > tol)
    assert point_in_domain(bp, (px, py)) == inside


def _nearest_tooth_by_scan(locs, tips, x, y):
    """Oracle for _nearest_tooth: from the two walls around x (sorted
    search) scan outward one wall per pass, left side first, on the points
    whose horizontal gap to that wall is still below their best distance;
    a wall replaces the best only when strictly nearer."""
    best = np.full(x.size, np.inf)
    near = np.zeros(x.size, dtype=int)
    right = np.searchsorted(locs, x)
    for move, j in ((-1, right - 1), (1, right)):
        scan = np.arange(x.size)
        while scan.size:
            clipped = np.clip(j, 0, locs.size - 1)
            gap = locs[clipped] - x[scan]
            keep = (clipped == j) & (np.abs(gap) < best[scan])
            scan, j, gap = scan[keep], j[keep], gap[keep]
            d = np.hypot(gap, np.maximum(tips[j] - np.abs(y[scan]), 0.0))
            better = d < best[scan]
            best[scan[better]] = d[better]
            near[scan[better]] = j[better]
            j = j + move
    return best, near


def _probe_points(locs, tips, rng, size):
    """Points on walls, one ulp off them, at midpoints of neighbouring
    walls, beyond the outer walls and anywhere between, each at a height
    of 0, a tip, one ulp off a tip, the taller tip of the two walls or
    above it, or anywhere, with either sign."""
    i = rng.integers(0, locs.size, size)
    k = np.minimum(i + 1, locs.size - 1)
    top = np.maximum(tips[i], tips[k])
    xs = np.stack([locs[i], np.nextafter(locs[i], -np.inf),
                   np.nextafter(locs[i], np.inf), 0.5 * (locs[i] + locs[k]),
                   locs[0] - rng.uniform(0.0, 1.0, size),
                   locs[-1] + rng.uniform(0.0, 1.0, size),
                   rng.uniform(locs[0], locs[-1], size)])
    ys = np.stack([np.zeros(size), tips[i], np.nextafter(tips[i], -np.inf),
                   np.nextafter(tips[i], np.inf), top, 2.0 * top + 1.0,
                   rng.uniform(0.0, 2.0 * top + 1.0)])
    cols = np.arange(size)
    x = xs[rng.integers(0, len(xs), size), cols]
    y = ys[rng.integers(0, len(ys), size), cols] * rng.choice([-1.0, 1.0], size)
    return x, y


def _assert_matches_scan(locs, tips, x, y):
    best, near = _nearest_tooth(locs, tips, x, y)
    ref_best, ref_near = _nearest_tooth_by_scan(locs, tips, x, y)
    assert np.array_equal(best, ref_best)
    assert np.array_equal(near, ref_near)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nearest_tooth_matches_the_scan(membership_domains, data):
    """Bit for bit, on batches of one point up to several walk blocks."""
    bp = data.draw(st.sampled_from(membership_domains), label="domain")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    size = data.draw(st.sampled_from([1, 2, 37, 600, 1500]), label="size")
    locs, tips = _comb(bp)
    _assert_matches_scan(locs, tips, *_probe_points(locs, tips,
                                                    np.random.default_rng(seed), size))


@pytest.mark.parametrize("locs, tips, point, near", [
    # equal distances on either side of x: the left wall wins
    ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.25, 0.0], (0.25, 0.75), 2),
    ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.25, 0.0], (0.25, -0.75), 2),
    ([-1.0, 1.0], [0.0, 0.0], (0.0, 3.0), 0),
    # two walls on one side at distance 5 (a 3-4-5 triangle): the nearer wins
    ([0.0, 3.0, 5.0, 16.0], [0.0, 0.0, 4.0, 0.0], (8.0, 0.0), 2),
    ([-16.0, -5.0, -3.0, 0.0], [0.0, 4.0, 0.0, 0.0], (-8.0, 0.0), 1),
], ids=["left-right", "left-right-below", "box-centre", "left-pair", "right-pair"])
def test_exact_ties_follow_the_scan_order(locs, tips, point, near):
    locs, tips = np.array(locs), np.array(tips)
    x, y = np.array([point[0]]), np.array([point[1]])
    assert _nearest_tooth(locs, tips, x, y)[1][0] == near
    _assert_matches_scan(locs, tips, x, y)


def _count_gathers(monkeypatch):
    """Record the candidate count of every point of every gather."""
    gathers = []
    gather = verify_mc._nearest_candidate

    def counted(locs, tips, x, ay, right, lo, hi):
        gathers.append(hi - lo)
        return gather(locs, tips, x, ay, right, lo, hi)
    monkeypatch.setattr(verify_mc, "_nearest_candidate", counted)
    return gathers


def test_batch_spans_several_gathers(membership_domains, monkeypatch):
    """Points on the axis, below the tall middle tips, have most walls
    within their bound, so a walk block needs several gathers; each holds
    at most _GATHER_CELLS candidates."""
    locs, tips = _comb(membership_domains[0])
    x, y = _probe_points(locs, tips, np.random.default_rng(0), 1500)
    y[:] = 0.0
    gathers = _count_gathers(monkeypatch)
    _assert_matches_scan(locs, tips, x, y)
    assert len(gathers) >= 2 * -(-x.size // verify_mc._WALK_BLOCK)
    assert all(c.sum() <= verify_mc._GATHER_CELLS for c in gathers)
    assert sum(c.size for c in gathers) == x.size


def test_one_wide_point_is_gathered_alone(monkeypatch):
    """The centre of the axis of a uniform n=20000 comb, whose middle tips
    stand 5000 wall gaps high, has half the walls within its bound: more
    than one gather holds, so it takes a gather of its own."""
    locs = np.linspace(-1.0, 1.0, 20001)
    tips = 0.5 * np.sqrt(1.0 - locs ** 2)
    x = np.array([-0.3, 0.0, 0.2, 0.5])
    y = np.array([0.6, 0.0, 0.6, 0.5])
    gathers = _count_gathers(monkeypatch)
    _assert_matches_scan(locs, tips, x, y)
    wide = [c for c in gathers if c.sum() > verify_mc._GATHER_CELLS]
    assert len(wide) == 1 and wide[0].size == 1 and wide[0][0] > 10000


def test_topology_rejects_non_monotone_chain():
    pts = np.array([
        [-0.75, 1.0, 0.5],
        [-0.25, 2.0, 0.5],
        [0.25, 2.0, -0.5],
        [0.75, 1.0, -0.5],
    ])
    bad = BoundaryPolyline(points=pts)
    with pytest.raises(TopologyError, match="monotone"):
        point_in_domain(bad, (1.5, 0.0))


def test_topology_rejects_chain_above_axis():
    pts = np.array([
        [-0.75, 1.0, 0.5],
        [-0.25, 1.0, -0.5],
        [0.25, 1.0, 0.5],
        [0.75, 1.0, -0.5],
    ])
    bad = BoundaryPolyline(points=pts)
    with pytest.raises(TopologyError, match="axis"):
        point_in_domain(bad, (1.0, 0.0))


# ---------------------------------------------------------------- simulation

def test_huge_box_truncates_every_walk():
    # two sweeps cannot bring a walk from the middle of a 100-wide strip
    # into the 1e-4 shell
    res = simulate_exit(box_polyline(50.0, 50.0), walks=16, step=1e-4,
                        seed=1, max_steps=2)
    assert res.truncated_walks == 16
    assert res.samples.size == 0
    assert res.truncation_warning


def test_small_box_exits_on_boundary():
    res = simulate_exit(box_polyline(1.0, 1.0), walks=200, step=1e-3, seed=3)
    assert res.truncated_walks == 0
    assert res.samples.size == 200
    # every exit sits on a side of the rectangle, well inside the slack
    slack = 10.0 * np.sqrt(1e-3)
    assert np.all(np.abs(res.samples) <= 1.0 + slack)


def test_same_seed_reproduces_exactly(uniform_bp):
    a = simulate_exit(uniform_bp, walks=64, step=1e-3, seed=7)
    b = simulate_exit(uniform_bp, walks=64, step=1e-3, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.walk_ids, b.walk_ids)
    c = simulate_exit(uniform_bp, walks=64, step=1e-3, seed=8)
    assert not np.array_equal(a.samples, c.samples)


def test_batch_size_does_not_change_samples(uniform_bp):
    small = simulate_exit(uniform_bp, walks=64, step=1e-3, seed=5)
    large = simulate_exit(uniform_bp, walks=200, step=1e-3, seed=5)
    assert small.truncated_walks == 0 and large.truncated_walks == 0
    assert np.array_equal(small.walk_ids, large.walk_ids[:64])
    assert np.array_equal(small.samples, large.samples[:64])


def test_exits_are_wall_abscissas(uniform_bp):
    res = simulate_exit(uniform_bp, walks=300, step=1e-3, seed=2)
    assert res.samples.size == 300
    assert np.all(np.isin(res.samples, np.unique(uniform_bp.x)))


def _centered_domain(dist, n, points):
    """Domain and step law of dist, both shifted by -mean(q_n) in the law's
    frame, so that walks from the origin start at the conformal centre."""
    norm, width, _ = normalize_support(dist)
    sq = build_measure(norm, n)
    shift = -width * sq.mean()
    locs, index = np.unique(width * sq.values + shift, return_inverse=True)
    masses = np.zeros(locs.size)
    np.add.at(masses, index, sq.widths())
    q_n = Discrete(zip(locs.tolist(), masses.tolist()))
    return scale_domain(boundary_points(sq, points), width, shift), q_n


def test_atom_law_exits_follow_the_step_law():
    """Truncated exponential: an atom at the origin from the clipped tail."""
    bp, q_n = _centered_domain(Exponential(1.0).center().truncate(3.0), 200, 2048)
    res = simulate_exit(bp, walks=4000, step=1e-4, seed=3)
    assert res.truncated_walks == 0
    assert ks_distance(res.samples, q_n) < 0.05


def test_origin_outside_raises():
    pts = np.array([
        [-0.75, 3.0, 1.0],
        [-0.25, 1.0, 1.0],
        [0.25, 1.0, -1.0],
        [0.75, 3.0, -1.0],
    ])
    shifted = BoundaryPolyline(points=pts)
    with pytest.raises(TopologyError, match="origin"):
        simulate_exit(shifted, walks=4, step=1e-3, seed=0)


def test_simulation_reads_the_comb_once(uniform_bp, monkeypatch):
    """The origin check and the walks share one comb and one origin search."""
    import mudk.verify_mc as verify_mc
    calls = {"_comb": 0, "_nearest_tooth": 0}

    def counted(name):
        fn = getattr(verify_mc, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(verify_mc, name, counted(name))
    res = simulate_exit(uniform_bp, walks=8, step=1e-3, seed=4, max_steps=1)
    assert calls == {"_comb": 1, "_nearest_tooth": 2}
    assert res.walks == 8


@pytest.mark.parametrize("dist, n", [
    (Uniform(-1.0, 1.0), 200),
    (Beta(2.0, 5.0).center(), 2000),
    (Exponential(1.0).center().truncate(3.0), 200),
], ids=["uniform", "beta", "truncated_exponential"])
def test_exit_samples_match_the_scan_sampler(dist, n, monkeypatch):
    bp, _ = _centered_domain(dist, n, 2048)
    fast = [simulate_exit(bp, walks=1000, step=1e-4, seed=s) for s in (20, 21, 22)]
    monkeypatch.setattr(verify_mc, "_nearest_tooth", _nearest_tooth_by_scan)
    for s, res in zip((20, 21, 22), fast):
        ref = simulate_exit(bp, walks=1000, step=1e-4, seed=s)
        assert np.array_equal(res.samples, ref.samples)
        assert np.array_equal(res.walk_ids, ref.walk_ids)
        assert res.truncated_walks == ref.truncated_walks


def test_simulation_argument_validation(uniform_bp):
    with pytest.raises(ValueError):
        simulate_exit(uniform_bp, walks=0, step=1e-3, seed=0)
    with pytest.raises(ValueError):
        simulate_exit(uniform_bp, walks=4, step=0.0, seed=0)
    with pytest.raises(ValueError):
        simulate_exit(uniform_bp, walks=4, step=float("nan"), seed=0)
    with pytest.raises(ValueError):
        simulate_exit(uniform_bp, walks=4, step=1e-3, seed=0, max_steps=0)


def test_truncation_warning_threshold():
    kw = dict(samples=np.array([0.1]), walk_ids=np.array([0]),
              seed=0, step=1e-3, walks=100)
    assert not ExitSampleSet(truncated_walks=1, **kw).truncation_warning
    assert ExitSampleSet(truncated_walks=2, **kw).truncation_warning


def test_exit_mean_agrees_with_start(uniform_bp):
    """The mean abscissa of exits should reproduce the starting abscissa."""
    res = simulate_exit(uniform_bp, walks=600, step=1e-3, seed=11)
    mean = res.samples.mean()
    std = res.samples.std()
    assert abs(mean) <= 3.0 * std / np.sqrt(res.samples.size)


def test_step_refinement_is_consistent(uniform_bp):
    dist = Uniform(-1.0, 1.0)
    coarse = simulate_exit(uniform_bp, walks=1500, step=1e-3, seed=13)
    fine = simulate_exit(uniform_bp, walks=1500, step=1e-4, seed=13)
    ks_coarse = ks_distance(coarse.samples, dist)
    ks_fine = ks_distance(fine.samples, dist)
    assert abs(ks_coarse - ks_fine) < 0.01


# ------------------------------------------------------------------ KS stat

def test_ks_of_stratified_sample_is_half_cell():
    m = 10
    samples = (np.arange(m) + 0.5) / m
    assert ks_distance(samples, Uniform(0.0, 1.0)) == pytest.approx(0.05)


def test_ks_of_single_point():
    d = ks_distance([0.3], Uniform(0.0, 1.0))
    assert d == pytest.approx(0.7)


def test_ks_of_matched_atoms():
    dist = Discrete([(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)])
    d = ks_distance([0.0, 1.0, 2.0, 3.0], dist)
    assert d == 0.0


def _ks_right_limits_only(samples, dist):
    """The KS formula that compares F, not F(x-), below each sample."""
    arr = np.sort(np.asarray(samples, dtype=float))
    m = arr.size
    f = np.asarray(dist.cdf(arr), dtype=float)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - f), np.max(f - (i - 1) / m)))


@pytest.mark.parametrize("dist", [Uniform(-1.0, 1.0), Beta(2.0, 5.0).center()],
                         ids=["uniform", "beta"])
def test_ks_of_atomless_law_is_unchanged(dist):
    rng = np.random.default_rng(4)
    lo, hi = dist.support()
    samples = rng.uniform(lo, hi, size=400)
    samples = np.concatenate([samples, samples[:100]])  # with ties
    zeros = samples.copy()
    zeros[::7] = np.resize([0.0, -0.0, -0.0], zeros[::7].size)  # -0.0 ties 0.0
    # as drawn, descending, and with signed zeros
    for case in (samples, -np.sort(-samples), zeros):
        assert ks_distance(case, dist) == _ks_right_limits_only(case, dist)


def test_ks_requires_samples():
    with pytest.raises(ValueError):
        ks_distance([], Uniform(0.0, 1.0))


def test_ks_detects_gross_mismatch():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.0, 0.5, size=400)
    assert ks_distance(samples, Uniform(0.0, 1.0)) > 0.4
