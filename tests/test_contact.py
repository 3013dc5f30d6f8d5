import math

import pytest

from realbook.contact import (
    GRID_POINTS,
    R0,
    R1,
    ContactModelError,
    FormSampler,
    build_profiles,
    contact_defect,
    contact_report,
    k_threshold,
    linspace,
    ramp,
    ramp_d,
    solid_torus_extension_check,
)
from oracles import h1, h2, k_term_dominates, wronskian

GRID = 30  # full 50-point runs live in the acceptance suite


def test_ramp_shape():
    s = linspace(-1, 0, 200)
    r = [ramp(x) for x in s]
    assert r[0] == 1.0 and r[-1] == 0.0
    assert all(b - a <= 1e-12 for a, b in zip(r, r[1:]))
    assert all(ramp_d(x) <= 0 for x in s)
    # flat near both chart ends, so the monodromy is the identity there
    assert all(ramp_d(x) == 0 for x in (-1.0, -0.9, -0.1, 0.0))


def test_disk_defect_positive():
    fs = FormSampler(family=0, k=5.0, resolution=GRID)
    mind, argmin = contact_defect(fs)
    assert mind == pytest.approx(4 * 5.0)
    assert argmin[0] in (+1, -1)


def test_annulus_sweep_monotone_in_k():
    vals = []
    for k in (1, 2, 4, 8, 16):
        fs = FormSampler(family=1, k=k, resolution=GRID)
        vals.append(contact_defect(fs)[0])
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_small_k_below_threshold():
    fs = FormSampler(family=1, k=0.01, resolution=GRID)
    assert contact_defect(fs)[0] < 0


def test_threshold_finite_and_monotone_in_twisting():
    ks = [k_threshold(n, resolution=GRID) for n in range(0, 6)]
    assert ks[0] < 1e-6                      # the disk works for every K > 0
    for a, b in zip(ks, ks[1:]):
        assert b >= a - 1e-9
    for n, kstar in enumerate(ks):
        for mult in (1, 2, 10):
            k = kstar * mult if kstar > 1e-8 else float(mult)
            fs = FormSampler(family=n, k=k, resolution=GRID)
            assert contact_defect(fs)[0] > 0


def test_defect_grows_past_threshold():
    kstar = k_threshold(2, resolution=GRID)
    d1 = contact_defect(FormSampler(family=2, k=kstar, resolution=GRID))[0]
    d2 = contact_defect(FormSampler(family=2, k=2 * kstar, resolution=GRID))[0]
    assert d2 > d1 > 0


def test_k_term_dominates_at_large_k():
    for n in range(0, 4):
        kstar = max(k_threshold(n, resolution=GRID), 0.1)
        assert k_term_dominates(n, 10 * kstar, resolution=GRID)


def test_unsupported_family():
    with pytest.raises(ContactModelError):
        FormSampler(family=11, k=1.0)
    with pytest.raises(ContactModelError):
        FormSampler(family=-1, k=1.0)


@pytest.mark.parametrize("k", [1.0, 10.0, 100.0])
def test_profiles_wronskian_positive(k):
    pf = build_profiles(k, 0.1)
    # the certification grid of build_profiles
    assert min(pf.wronskians(linspace(R0 / 10.0, 1.0, GRID_POINTS))) > 0
    rr = linspace(0.02, 1.0, 2000)
    assert min(wronskian(pf, r) for r in rr) > 0


def test_profile_head_and_tail_pinned():
    pf = build_profiles(10.0, 0.1)
    for r in (0.0, 0.05, 0.1, 0.2):
        assert h1(pf, r) == pytest.approx(1.0, rel=1e-5, abs=1e-8)
        assert h2(pf, r) == pytest.approx(r ** 2, rel=1e-5, abs=1e-8)
    for r in (0.8, 0.9, 1.0):
        assert h1(pf, r) == pytest.approx(2 * math.exp(1 - r - 0.1), rel=1e-5, abs=1e-8)
        assert h2(pf, r) == pytest.approx(20.0, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("k", [1.0, 10.0, 100.0])
def test_profile_cubics_join_pinned_ends_smoothly(k):
    pf = build_profiles(k, 0.1)
    for r in (R0, R1):
        below = next(pf.samples((math.nextafter(r, 0.0),)))
        above = next(pf.samples((math.nextafter(r, 1.0),)))
        assert below == pytest.approx(above, rel=1e-9, abs=1e-9), r


def test_profile_limit_at_origin():
    pf = build_profiles(1.0, 0.1)
    r = 1e-4
    assert abs(wronskian(pf, r) / r - 2.0) <= 1e-6


def test_profile_bad_parameters():
    with pytest.raises(ContactModelError):
        build_profiles(0.5, 0.1)
    with pytest.raises(ContactModelError):
        build_profiles(10.0, 0.5)


def test_extension_reflection_matches():
    # on eps <= 0.15 the gluing region lies where the twist ramp is flat
    # (s >= -0.15) and inside the profiles' pinned tail (r >= 0.8)
    for family in (0, 1, 2, 10):
        for k in (1.0, 10.0, 100.0):
            fs = FormSampler(family=family, k=k)
            for eps in (0.01, 0.1, 0.15):
                rep = solid_torus_extension_check(fs, build_profiles(k, eps))
                assert rep.max_mismatch == 0.0, (family, k, eps)
                assert [name for name, _v in rep.checks] == ["dr", "dvartheta", "dphi"]


@pytest.mark.parametrize("eps", [0.16, 0.2, 0.24])
def test_extension_fails_where_the_twist_ramp_is_not_flat(eps):
    # the dr coefficient -P is largest at r = 1, s = -eps, t = 1:
    # 2 pi n e^s |phi'(s)| with |phi'| = 6 u (1 - u) / 0.7, u = (s + 0.85) / 0.7
    u = (0.85 - eps) / 0.7
    want = 2 * math.pi * 2 * math.exp(-eps) * 6 * u * (1 - u) / 0.7
    rep = solid_torus_extension_check(FormSampler(family=2, k=10.0), build_profiles(10.0, eps))
    checks = dict(rep.checks)
    assert checks["dr"] == pytest.approx(want, rel=1e-12)
    assert rep.max_mismatch == checks["dr"] > 1.0
    if eps <= 0.2:
        assert checks["dvartheta"] == checks["dphi"] == 0.0


@pytest.mark.parametrize("eps", [0.21, 0.24])
def test_extension_fails_where_the_profiles_are_not_pinned(eps):
    # r = 1 - eps < r1 = 0.8: the profiles' interpolating cubics, not
    # their pinned tails, meet the page form there
    pf = build_profiles(10.0, eps)
    rep = solid_torus_extension_check(FormSampler(family=0, k=10.0), pf)
    checks = dict(rep.checks)
    assert checks["dr"] == 0.0
    h1, _dh1, h2, _dh2 = next(pf.samples((1.0 - eps,)))
    assert checks["dphi"] >= abs(h2 - 20.0) > 1e-3
    assert checks["dvartheta"] >= abs(h1 - 2.0) > 0.0
    assert rep.max_mismatch == max(checks.values()) > 1e-2


def test_extension_fails_on_profiles_built_at_another_k():
    rep = solid_torus_extension_check(FormSampler(family=1, k=0.5), build_profiles(1.0, 0.1))
    assert dict(rep.checks) == {"dr": 0.0, "dvartheta": 0.0, "dphi": 1.0}
    assert rep.max_mismatch == 1.0


def test_extension_counts_a_nan_as_the_largest_gap():
    rep = solid_torus_extension_check(FormSampler(family=1, k=math.nan), build_profiles(1.0, 0.1))
    assert math.isnan(dict(rep.checks)["dphi"]) and math.isnan(rep.max_mismatch)


def test_contact_report_shape():
    rep = contact_report(1, 8.0, resolution=12)
    assert rep["family"] == "annulus:1"
    assert set(rep) == {"family", "K", "grid", "min_defect", "argmin"}


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_contact_report_rejects_non_finite_k(k):
    with pytest.raises(ValueError, match="K must be finite") as err:
        contact_report(2, k, resolution=12)
    assert not isinstance(err.value, ContactModelError)


def test_argmin_lexicographic_deterministic():
    fs = FormSampler(family=0, k=3.0, resolution=12)
    # disk defect is constant over the grid: the tie-break must pick the
    # first grid point in (piece, s, theta, t) order
    _val, argmin = contact_defect(fs)
    assert argmin == (1, -1.0, -math.pi, 0.0)


# ---------------------------------------------------------------------------
# oracle: alpha ^ d(alpha) by centred differences at 3-D sample points


def _oracle_defect(fs: FormSampler, piece: int, point: tuple, h: float = 1e-5) -> float:
    """The defect at (s, theta, t) from the full coefficient
    P (R_theta - Q_t) + Q (P_t - R_s) + R (Q_s - P_theta) of
    alpha ^ d(alpha) on ds dtheta dt, every partial a centred difference
    of the pointwise form that alpha_components samples, against the
    volume -(e^s ds dtheta dt)."""
    def form(x):
        return [piece * v for v in fs.alpha_at(x[0], x[2])]

    def d(comp, axis):
        lo, hi = list(point), list(point)
        lo[axis] -= h
        hi[axis] += h
        return (form(hi)[comp] - form(lo)[comp]) / (2 * h)

    p, q, r = form(point)
    coef = p * (d(2, 1) - d(1, 2)) + q * (d(0, 2) - d(2, 0)) + r * (d(1, 0) - d(0, 1))
    return -coef / math.exp(point[0])


def _oracle_disagreement(family: int, k: float, resolution: int = 10) -> float:
    fs = FormSampler(family=family, k=k, resolution=resolution)
    s, theta, t = fs.grid()
    worst = 0.0
    for piece in (1, -1):
        defect = fs.defect_grid(piece)
        for i, si in enumerate(s):
            for tj in theta:
                for tk in t:
                    want = _oracle_defect(fs, piece, (si, tj, tk))
                    worst = max(worst, abs(defect[i] - want) / max(1.0, abs(want)))
    return worst


def test_alpha_components_samples_the_pointwise_form():
    fs = FormSampler(family=3, k=7.0, resolution=6)
    s, _theta, t = fs.grid()
    plus, minus = fs.alpha_components(1), fs.alpha_components(-1)
    assert plus[0] == [fs.alpha_at(si, tj)[0] for si in s for tj in t]
    assert plus[1] == [fs.alpha_at(si, 0.5)[1] for si in s]
    assert plus[2] == [fs.alpha_at(si, 0.5)[2] for si in s]
    assert all(m == [-x for x in p] for p, m in zip(plus, minus))


@pytest.mark.parametrize("family", [0, 1, 2, 5, 10])
def test_defect_grid_matches_finite_difference_oracle(family):
    for k in (0.5, 10.0, 100.0):
        assert _oracle_disagreement(family, k) <= 1e-7, k


@pytest.mark.parametrize("family", [1, 2, 5, 10])
def test_oracle_rejects_a_flipped_twist_term(family, monkeypatch):
    right = FormSampler.defect_grid

    def flipped(self, piece):
        # the defect is 4K plus the twist term; negate the twist term
        return [2 * kt - d for d, kt in zip(right(self, piece), self.k_term_grid())]

    monkeypatch.setattr(FormSampler, "defect_grid", flipped)
    assert _oracle_disagreement(family, 10.0) > 1.0


# ---------------------------------------------------------------------------
# oracle: the 3-D numpy evaluation the 1-D model replaced


def _numpy_model(np):
    """The former numpy model: the defect on the full s x theta x t grid
    of both pieces, its stacked argmin and the bisection over it."""

    def ramp_d_np(s):
        u = (s - -0.85) / (-0.15 - -0.85)
        inside = (u > 0.0) & (u < 1.0)
        u = np.clip(u, 0.0, 1.0)
        return -np.where(inside, 6.0 * u * (1.0 - u), 0.0) / (-0.15 - -0.85)

    def grid(n):
        return (np.linspace(-1.0, 0.0, n), np.linspace(-math.pi, math.pi, n),
                np.linspace(0.0, 1.0, n))

    def defect_grid(family, k, n):
        ss, _th, _tt = np.meshgrid(*grid(n), indexing="ij")
        es = np.exp(ss)
        dp_dt_over = 2.0 * math.pi * family * es * ramp_d_np(ss)
        return -(-2.0 * dp_dt_over + 2.0 * k * -2.0 * np.ones_like(es))

    def contact_defect(family, k, n):
        stack = np.stack([defect_grid(family, k, n), defect_grid(family, k, n)])
        idx = np.unravel_index(np.argmin(stack), stack.shape)
        s, theta, t = grid(n)
        argmin = (1 if idx[0] == 0 else -1, float(s[idx[1]]), float(theta[idx[2]]),
                  float(t[idx[3]]))
        return float(stack[idx]), argmin

    def k_threshold(family, n):
        def min_defect(k):
            return min(float(np.min(defect_grid(family, k, n))),
                       float(np.min(defect_grid(family, k, n))))

        if min_defect(1e-9) > 0.0:
            return 1e-9
        lo, hi = 1e-9, 1.0
        while min_defect(hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 0.01 * hi:
            mid = 0.5 * (lo + hi)
            if min_defect(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    return contact_defect, k_threshold


def test_linspace_matches_numpy():
    np = pytest.importorskip("numpy")
    for a, b, n in [(-1.0, 0.0, 50), (-math.pi, math.pi, 50), (1e-6, 0.2, 40),
                    (0.02, 1.0, 10_000), (0.9, 1.0, 2), (0.5, 0.5, 7),
                    (0.3, 1.0, 1), (0.3, 1.0, 0)]:
        assert linspace(a, b, n) == np.linspace(a, b, n).tolist(), (a, b, n)


@pytest.mark.parametrize("grid", [2, 12, 20, 30, 40, 50])
def test_one_dimensional_model_matches_numpy_grid(grid):
    np = pytest.importorskip("numpy")
    np_defect, np_threshold = _numpy_model(np)
    for family in range(11):
        kstar = k_threshold(family, resolution=grid)
        assert kstar == np_threshold(family, grid), family
        for k in (kstar, 0.5, 10.0, 100.0):
            got = contact_defect(FormSampler(family=family, k=k, resolution=grid))
            assert got == np_defect(family, k, grid), (family, k)
