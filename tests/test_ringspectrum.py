"""Tests for ring spectra with periodic, antiperiodic and barrier seams."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berryline import (
    GridTooCoarse,
    JTParams,
    RingProblem,
    build_ring_hamiltonian,
    degeneracy_flags,
    flat_ring_problem,
    jt_point_data,
    jt_ring_problem,
    ringspectrum,
    spectrum,
)


def dispersion_levels(m_size, radius, parity, count):
    """Oracle: exact eigenvalues of the free three-point ring stencil.

    The stencil is circulant, so plane waves diagonalize it with
    t (2 - 2 cos(q h)) at the allowed momenta: integers for a periodic seam,
    half-odd integers for an antiperiodic one.
    """
    h = 2.0 * math.pi / m_size
    t = 1.0 / (2.0 * radius ** 2 * h ** 2)
    shift = 0.0 if parity == "even" else 0.5
    q = np.arange(m_size) + shift
    return np.sort(t * (2.0 - 2.0 * np.cos(q * h)))[:count]


# ---------------------------------------------------------------------------
# problem validation


def test_problem_validation():
    with pytest.raises(ValueError):
        RingProblem(radius=0.0, grid_size=128, potential=np.zeros(128),
                    flux_parity="even")
    with pytest.raises(GridTooCoarse):
        RingProblem(radius=1.0, grid_size=32, potential=np.zeros(32),
                    flux_parity="even")
    with pytest.raises(ValueError):
        RingProblem(radius=1.0, grid_size=128, potential=np.zeros(128),
                    flux_parity="dirichlet")
    with pytest.raises(ValueError):
        RingProblem(radius=1.0, grid_size=128, potential=np.zeros(64),
                    flux_parity="even")


def test_potential_must_be_finite_outside_barrier():
    v = np.zeros(128)
    v[3] = math.inf
    with pytest.raises(ValueError):
        RingProblem(radius=1.0, grid_size=128, potential=v, flux_parity="even")
    # infinities under the barrier are deleted points, hence harmless
    v = np.zeros(128)
    h = 2.0 * math.pi / 128
    v[40:50] = math.inf
    RingProblem(radius=1.0, grid_size=128, potential=v, flux_parity="even",
                barrier=(40 * h, 9 * h))


def test_barrier_validation():
    # a width of 2 pi or more runs past 2 pi, as the start is above 0
    with pytest.raises(ValueError, match="must lie inside"):
        flat_ring_problem("even", 128, barrier=(0.1, 2.0 * math.pi))
    with pytest.raises(ValueError):
        flat_ring_problem("even", 128, barrier=(0.1, 0.0))
    with pytest.raises(ValueError):
        flat_ring_problem("even", 128, barrier=(0.0, 1.0))
    with pytest.raises(ValueError):
        flat_ring_problem("even", 128, barrier=(3.0, 2.0 * math.pi - 2.9))


def test_barrier_narrower_than_grid_step():
    # a slit between two grid points deletes nothing and must refuse
    with pytest.raises(GridTooCoarse):
        flat_ring_problem("even", 64, barrier=(0.001, 0.001)).barrier_indices()


def test_barrier_leaving_too_few_points():
    with pytest.raises(GridTooCoarse):
        build_ring_hamiltonian(
            flat_ring_problem("even", 64,
                              barrier=(0.1, 2.0 * math.pi - 0.2)))


# ---------------------------------------------------------------------------
# matrix structure


def test_stencil_structure():
    m_size = 64
    prob = flat_ring_problem("even", m_size, radius=1.3)
    t = 1.0 / (2.0 * 1.3 ** 2 * prob.step ** 2)
    h_mat = build_ring_hamiltonian(prob)
    assert h_mat.shape == (m_size, m_size)
    assert np.allclose(np.diag(h_mat), 2.0 * t)
    assert h_mat[3, 4] == pytest.approx(-t)
    assert h_mat[4, 3] == pytest.approx(-t)
    assert h_mat[0, m_size - 1] == pytest.approx(-t)
    assert np.array_equal(h_mat, h_mat.T)


def test_antiperiodic_seam_flips_wrap_only():
    even = build_ring_hamiltonian(flat_ring_problem("even", 64))
    odd = build_ring_hamiltonian(flat_ring_problem("odd", 64))
    diff = odd - even
    assert diff[0, 63] == pytest.approx(2.0 / (2.0 * (2.0 * math.pi / 64) ** 2))
    diff[0, 63] = diff[63, 0] = 0.0
    assert np.max(np.abs(diff)) == 0.0


def test_potential_enters_diagonal():
    v = np.linspace(0.0, 3.0, 128)
    prob = RingProblem(radius=1.0, grid_size=128, potential=v,
                       flux_parity="even")
    h_mat = build_ring_hamiltonian(prob)
    t = 1.0 / (2.0 * prob.step ** 2)
    assert np.allclose(np.diag(h_mat) - 2.0 * t, v, atol=1e-12)


def test_barrier_deletes_rows():
    prob = flat_ring_problem("even", 256, barrier=(math.pi / 2.0, math.pi / 4.0))
    cut = prob.barrier_indices()
    assert len(cut) > 0
    h_mat = build_ring_hamiltonian(prob)
    assert h_mat.shape == (256 - len(cut), 256 - len(cut))
    assert len(prob.kept_indices()) + len(cut) == 256


def full_ring_cut(problem):
    """Oracle: the full periodic M x M ring with the kept rows and columns
    copied out of it, the barrier's points filled and then dropped."""
    m_size = problem.grid_size
    t = 1.0 / (2.0 * problem.radius ** 2 * problem.step ** 2)
    h_mat = np.zeros((m_size, m_size))
    np.fill_diagonal(h_mat, 2.0 * t + problem.potential)
    idx = np.arange(m_size - 1)
    h_mat[idx, idx + 1] = -t
    h_mat[idx + 1, idx] = -t
    odd_seam = problem.flux_parity == "odd" and problem.barrier is None
    wrap = t if odd_seam else -t
    h_mat[m_size - 1, 0] = wrap
    h_mat[0, m_size - 1] = wrap
    keep = np.ones(m_size, dtype=bool)
    keep[problem.barrier_indices()] = False
    keep = np.nonzero(keep)[0]
    if len(keep) < ringspectrum.MIN_GRID_POINTS // 2:
        raise GridTooCoarse(f"barrier leaves only {len(keep)} grid points")
    return h_mat[np.ix_(keep, keep)]


def build_outcome(build, problem):
    try:
        h_mat = build(problem)
    except GridTooCoarse as err:
        return type(err), str(err)
    return h_mat.shape, h_mat.tobytes()


FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=150, deadline=None)
@given(grid=st.integers(64, 300), radius=st.floats(0.05, 20.0),
       parity=st.sampled_from(["even", "odd"]), start=FRACTION,
       width=st.none() | FRACTION | st.floats(0.999, 0.99999),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=1024, radius=1.0, parity="odd", start=0.5, width=None, seed=1)
@example(grid=4096, radius=0.7, parity="odd", start=0.5, width=0.5, seed=2)
# the upper edge snaps to index M-1, so the wrap goes with it
@example(grid=256, radius=1.0, parity="odd", start=0.45, width=0.9999, seed=3)
@example(grid=65, radius=2.0, parity="even", start=0.6, width=0.99999, seed=4)
# the barrier leaves fewer than MIN_GRID_POINTS // 2 points
@example(grid=64, radius=1.0, parity="odd", start=0.1, width=0.99, seed=5)
def test_kept_grid_build_equals_full_ring_cut(grid, radius, parity, start,
                                              width, seed):
    barrier = None
    if width is not None:
        a = start * 2.0 * math.pi
        barrier = (a, width * (2.0 * math.pi - a))
    potential = np.random.default_rng(seed).normal(size=grid)
    try:
        problem = RingProblem(radius=radius, grid_size=grid,
                              potential=potential, flux_parity=parity,
                              barrier=barrier)
    except (ValueError, GridTooCoarse):
        return  # a barrier narrower than a step or past 2 pi; nothing to build
    assert (build_outcome(build_ring_hamiltonian, problem)
            == build_outcome(full_ring_cut, problem))


def test_barrier_through_the_last_index_drops_the_wrap():
    # the upper edge snaps to index M-1, so the seam goes with it
    cut = flat_ring_problem("odd", 256, barrier=(0.45 * 2.0 * math.pi,
                                                 0.9999 * 0.55 * 2.0 * math.pi))
    assert cut.kept_indices()[-1] < 255
    h_mat = build_ring_hamiltonian(cut)
    assert h_mat[0, -1] == h_mat[-1, 0] == 0.0


# ---------------------------------------------------------------------------
# free-ring spectra


def test_free_ring_even_levels():
    res = spectrum(flat_ring_problem("even", 1024), 6)
    assert res.boundary == "periodic"
    # continuum levels m^2 / 2 for integer m, doubly degenerate above m = 0
    want = [0.0, 0.5, 0.5, 2.0, 2.0, 4.5]
    assert np.allclose(res.levels, want, atol=2e-3)
    assert np.allclose(res.levels, dispersion_levels(1024, 1.0, "even", 6),
                       atol=1e-10)


def test_free_ring_odd_levels():
    res = spectrum(flat_ring_problem("odd", 1024), 6)
    assert res.boundary == "antiperiodic"
    want = [0.125, 0.125, 1.125, 1.125, 3.125, 3.125]
    assert np.allclose(res.levels, want, atol=2e-3)
    assert np.allclose(res.levels, dispersion_levels(1024, 1.0, "odd", 6),
                       atol=1e-10)
    # lowest antiperiodic level written out from the dispersion at q = 1/2;
    # tolerance covers diagonalization roundoff at the eps * ||H|| scale
    h = 2.0 * math.pi / 1024
    assert res.levels[0] == pytest.approx((1.0 - math.cos(0.5 * h)) / h ** 2,
                                          abs=1e-10)


def test_free_ring_radius_scaling():
    res = spectrum(flat_ring_problem("even", 512, radius=2.0), 3)
    assert np.allclose(res.levels, [0.0, 0.125, 0.125], atol=1e-3)


def test_level_convergence_is_second_order():
    # error against the continuum m = 1 level must shrink by 4x per halving
    errs = []
    for m_size in (256, 512, 1024):
        res = spectrum(flat_ring_problem("even", m_size), 2)
        errs.append(abs(float(res.levels[1]) - 0.5))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_degeneracy_flags_on_spectra():
    even = spectrum(flat_ring_problem("even", 512), 6)
    assert even.degeneracy_flags == (False, True, True, True, True, False)
    odd = spectrum(flat_ring_problem("odd", 512), 6)
    assert odd.degeneracy_flags == (True,) * 6


def test_degeneracy_flags_unit():
    flags = degeneracy_flags(np.array([0.0, 1.0, 1.0 + 1e-12, 3.0]))
    assert flags == (False, True, True, False)
    # tolerance is relative to the level scale
    flags = degeneracy_flags(np.array([1e9, 1e9 + 1.0, 2e9]))
    assert flags == (True, True, False)


def pairwise_flags(levels):
    """Oracle: the pairwise loop over neighbouring levels, in Python floats."""
    n = len(levels)
    flags = [False] * n
    for i in range(n - 1):
        a, b = float(levels[i]), float(levels[i + 1])
        if abs(a - b) <= ringspectrum.DEGENERACY_FLAG_TOL * max(1.0, abs(a), abs(b)):
            flags[i] = True
            flags[i + 1] = True
    return tuple(flags)


LEVEL = st.floats(-1e6, 1e6) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(base=st.lists(LEVEL, max_size=12),
       ties=st.lists(st.tuples(st.integers(0, 10), st.integers(-2, 2),
                               st.booleans()), max_size=6))
@example(base=[], ties=[])
@example(base=[1.0], ties=[])
@example(base=[1e308, -1e308, math.inf, math.inf, math.nan], ties=[])
def test_degeneracy_flags_equal_pairwise_loop(base, ties):
    # a tie planted at the tolerance, moved by a few ulps either way
    levels = list(base)
    for i, ulps, below in ties:
        if i + 1 < len(levels) and math.isfinite(levels[i]):
            gap = ringspectrum.DEGENERACY_FLAG_TOL * max(1.0, abs(levels[i]))
            b = levels[i] - gap if below else levels[i] + gap
            for _ in range(abs(ulps)):
                b = math.nextafter(b, math.copysign(math.inf, ulps))
            levels[i + 1] = b
    flags = degeneracy_flags(np.array(levels, dtype=float))
    assert flags == pairwise_flags(levels)
    assert all(type(flag) is bool for flag in flags)


def test_spectrum_level_count_validation():
    prob = flat_ring_problem("even", 128)
    with pytest.raises(ValueError):
        spectrum(prob, 0)
    with pytest.raises(ValueError):
        spectrum(prob, 129)


def test_level_count_checked_before_the_matrix(monkeypatch):
    def no_build(*args):
        raise AssertionError("a matrix was formed")

    monkeypatch.setattr(ringspectrum, "build_ring_hamiltonian", no_build)
    monkeypatch.setattr(ringspectrum, "_palindrome_halves", no_build)
    # a flat ring and a flat cut ring split into halves; a potential with no
    # mirror takes the dense matrix
    for problem in (flat_ring_problem("odd", grid_size=64),
                    flat_ring_problem("odd", grid_size=64, barrier=(1.0, 0.5)),
                    RingProblem(radius=1.0, grid_size=64,
                                potential=np.arange(64.0), flux_parity="odd")):
        kept = len(problem.kept_indices())
        # a valid count reaches a patched step, so the refusal below is not
        # passed by a path that forms no matrix
        with pytest.raises(AssertionError, match="a matrix was formed"):
            spectrum(problem, 8)
        with pytest.raises(ValueError, match=f"for {kept} kept grid points"):
            spectrum(problem, kept + 1)


def test_spectrum_deterministic():
    a = spectrum(flat_ring_problem("odd", 256), 5)
    b = spectrum(flat_ring_problem("odd", 256), 5)
    assert np.array_equal(a.levels, b.levels)


# ---------------------------------------------------------------------------
# the mirror split against the dense kept-grid matrix

EPS = float(np.finfo(float).eps)


def dense_levels(problem, count):
    """Oracle: eigvalsh of the dense kept-grid matrix, and the tolerance
    1e3 eps ||H||_inf that benchmarks/check.py allows a symmetric solver."""
    h_mat = build_ring_hamiltonian(problem)
    norm = float(np.max(np.sum(np.abs(h_mat), axis=1)))
    return np.linalg.eigvalsh(h_mat)[:count], 1e3 * EPS * norm


def mirrored(values, grid):
    """A ring potential with v[j] = v[M - j], from values at j = 0..M/2."""
    j = np.arange(grid)
    return values[np.minimum(j, grid - j)]


def palindrome_on_kept_arc(grid, lo, width, values):
    """A barrier ring's potential: a palindrome in ring order on the kept
    points (after the barrier, then before it) and inf under the barrier."""
    kept = grid - width
    chain = np.concatenate((values[:(kept + 1) // 2], values[:kept // 2][::-1]))
    v = np.full(grid, math.inf)
    order = np.roll(np.delete(np.arange(grid), np.arange(lo, lo + width)), -lo)
    v[order] = chain
    return v


@settings(max_examples=80, deadline=None)
@given(grid=st.integers(64, 1100), parity=st.sampled_from(["even", "odd"]),
       radius=st.floats(0.05, 20.0), scale=st.sampled_from([0.0, 1.0, 1e3]),
       cut=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=1024, parity="odd", radius=1.0, scale=1.0, cut=None, seed=1)
@example(grid=1025, parity="even", radius=1.0, scale=0.0, cut=None, seed=2)
# flat barriers that keep an odd and an even number of points, one of them
# running through index M-1
@example(grid=256, parity="odd", radius=0.7, scale=0.0, cut=(0.2, 0.3),
         seed=3)
@example(grid=257, parity="even", radius=0.7, scale=0.0, cut=(0.2, 0.3),
         seed=4)
@example(grid=300, parity="even", radius=1.3, scale=0.0, cut=(0.5, 1.0),
         seed=5)
def test_mirror_halves_match_the_dense_matrix(grid, parity, radius, scale,
                                              cut, seed):
    values = scale * np.random.default_rng(seed).normal(size=grid)
    if cut is None:
        problem = RingProblem(radius=radius, grid_size=grid,
                              potential=mirrored(values[:grid // 2 + 1], grid),
                              flux_parity=parity)
    else:
        # cut points lo .. lo + width - 1 with 1 <= lo, lo + width <= M, and
        # at least MIN_GRID_POINTS // 2 points kept
        width = 1 + int(cut[0] * (grid - ringspectrum.MIN_GRID_POINTS // 2 - 1))
        lo = min(1 + int(cut[1] * (grid - width)), grid - width)
        h = 2.0 * math.pi / grid
        problem = RingProblem(
            radius=radius, grid_size=grid,
            potential=palindrome_on_kept_arc(grid, lo, width, values),
            flux_parity=parity, barrier=((lo - 0.25) * h, (width - 0.5) * h))
        assert len(problem.barrier_indices()) == width
    assert ringspectrum._mirror_chains(problem) is not None
    count = min(12, len(problem.kept_indices()))
    want, tol = dense_levels(problem, count)
    got = spectrum(problem, count).levels
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("grid", [64, 65, 1024, 1025])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_flat_ring_halves_match_the_dispersion(grid, parity):
    # 2t (1 - cos(q h)), q integer (even seam) or half-odd (odd seam)
    prob = flat_ring_problem(parity, grid, radius=0.9)
    tol = 1e3 * EPS * 4.0 * prob.hopping
    got = spectrum(prob, 16).levels
    assert np.max(np.abs(got - dispersion_levels(grid, 0.9, parity, 16))) <= tol


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("grid, barrier, kept", [
    (256, (1.0, 1.0), 215),
    (256, (1.0, 1.01), 214),
    (257, (5.0, 1.28), 205),  # through index M-1: points 0 .. 204 kept
], ids=["odd-kept", "even-kept", "last-index"])
def test_flat_barrier_halves_match_the_open_chain(parity, grid, barrier, kept):
    # 2t (1 - cos(j pi / (N + 1))) for an open chain of N sites
    prob = flat_ring_problem(parity, grid, radius=1.1, barrier=barrier)
    assert len(prob.kept_indices()) == kept
    j = np.arange(1, 17)
    want = 2.0 * prob.hopping * (1.0 - np.cos(j * math.pi / (kept + 1)))
    got = spectrum(prob, 16).levels
    assert np.max(np.abs(got - want)) <= 1e3 * EPS * 4.0 * prob.hopping


def one_ulp_off(v, j):
    v = v.copy()
    v[j] = np.nextafter(v[j], math.inf)
    return v


@pytest.mark.parametrize("case", ["one-site", "one-ulp", "model-barrier",
                                  "flat", "model"])
def test_only_unmirrored_potentials_take_the_dense_path(monkeypatch, jt11,
                                                        case):
    model = jt_ring_problem(jt11, 1.0, grid_size=256)
    one_site = np.zeros(256)
    one_site[5] = 0.1
    problem = {
        "one-site": RingProblem(radius=1.0, grid_size=256,
                                potential=one_site, flux_parity="odd"),
        "one-ulp": RingProblem(radius=1.0, grid_size=256,
                               potential=one_ulp_off(model.potential, 200),
                               flux_parity="odd"),
        "model-barrier": jt_ring_problem(jt11, 1.0, grid_size=256,
                                         barrier=(2.0, 0.8)),
        "flat": flat_ring_problem("odd", 256),
        "model": model,
    }[case]
    want, tol = dense_levels(problem, 8)
    builds = []
    dense = ringspectrum.build_ring_hamiltonian

    def counted(prob):
        builds.append(prob)
        return dense(prob)

    monkeypatch.setattr(ringspectrum, "build_ring_hamiltonian", counted)
    got = spectrum(problem, 8).levels
    assert len(builds) == (case not in ("flat", "model"))
    assert np.max(np.abs(got - want)) <= tol
    if builds:  # the fallback is the oracle itself
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# gauge checks


def distributed_flux_levels(m_size, parity, count):
    """Oracle: spread the seam flux evenly over every link.

    A per-link Peierls phase of pi/M (antiperiodic) or 2 pi/M (trivial) is
    gauge-equivalent to the concentrated seam, so the complex Hermitian
    matrix built here must reproduce the real seam spectra exactly.
    """
    h = 2.0 * math.pi / m_size
    t = 1.0 / (2.0 * h ** 2)
    total = math.pi if parity == "odd" else 2.0 * math.pi
    phase = np.exp(1j * total / m_size)
    h_mat = np.zeros((m_size, m_size), dtype=complex)
    np.fill_diagonal(h_mat, 2.0 * t)
    idx = np.arange(m_size - 1)
    h_mat[idx, idx + 1] = -t * phase
    h_mat[idx + 1, idx] = -t * np.conj(phase)
    h_mat[m_size - 1, 0] = -t * phase
    h_mat[0, m_size - 1] = -t * np.conj(phase)
    return np.linalg.eigvalsh(h_mat)[:count]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_seam_equals_distributed_flux(parity):
    got = spectrum(flat_ring_problem(parity, 256), 8).levels
    want = distributed_flux_levels(256, parity, 8)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("grid, barrier", [
    (512, (math.pi / 2.0, math.pi / 3.0)),
    (512, (1.0, 4.0)),
    # gauging the odd seam away by basis sign flips turns +0.0 entries into
    # -0.0, which moves the last bit of level 0 on this grid
    (64, (0.5, 0.7)),
], ids=["barrier0", "barrier1", "barrier2"])
def test_barrier_makes_parity_gauge(grid, barrier):
    """Once the ring is cut the seam sign is unobservable: both parities
    must return bitwise-identical levels."""
    even = spectrum(flat_ring_problem("even", grid, barrier=barrier), 8)
    odd = spectrum(flat_ring_problem("odd", grid, barrier=barrier), 8)
    assert np.array_equal(even.levels, odd.levels)
    assert even.boundary == odd.boundary == "dirichlet-barrier"


def test_barrier_box_limit():
    # keep only the arc (-0.5, 0.5): a Dirichlet box about one unit long.
    # The box edges round to the grid, so the oracle length is (kept + 1) h.
    prob = flat_ring_problem("even", 1024,
                             barrier=(0.5, 2.0 * math.pi - 1.0))
    res = spectrum(prob, 2)
    length = (len(prob.kept_indices()) + 1) * prob.step
    e1 = math.pi ** 2 / (2.0 * length ** 2)
    assert res.levels[0] == pytest.approx(e1, rel=1e-3)
    assert res.levels[1] / res.levels[0] == pytest.approx(4.0, rel=2e-2)


# ---------------------------------------------------------------------------
# model-derived problems


def test_jt_ring_parity_follows_node_count(jt11, jt10, jt01):
    assert jt_ring_problem(jt11, 1.0, grid_size=128).flux_parity == "odd"
    assert jt_ring_problem(jt11, 3.0, grid_size=128).flux_parity == "even"
    assert jt_ring_problem(jt10, 0.7, grid_size=128).flux_parity == "odd"
    assert jt_ring_problem(jt01, 1.0, grid_size=128).flux_parity == "even"


def test_jt_ring_potential_samples_band_energy(jt11):
    prob = jt_ring_problem(jt11, 1.5, grid_size=128)
    h = prob.step
    for j in (0, 17, 64, 100):
        want = jt_point_data(jt11, 1.5, j * h).energies[0]
        assert prob.potential[j] == pytest.approx(want, abs=1e-14)
    upper = jt_ring_problem(jt11, 1.5, grid_size=128, band=1)
    assert upper.flux_parity == "odd"
    assert np.all(upper.potential >= prob.potential)


@pytest.mark.parametrize("grid", [128, 129, 1024, 1025])
@pytest.mark.parametrize("band", [0, 1])
@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_jt_ring_potential_is_an_exact_mirror(jt11, grid, band, radius):
    v = jt_ring_problem(jt11, radius, grid_size=grid, band=band).potential
    assert v[1:].tobytes() == v[:0:-1].tobytes()


def test_jt_ring_pure_linear_is_shifted_free_ring(jt10):
    """With g = 0 the lower band energy is flat (r^2/2 - kr), so the model
    ring is the free antiperiodic ring shifted by a constant."""
    got = spectrum(jt_ring_problem(jt10, 1.0, grid_size=256), 4)
    free = spectrum(flat_ring_problem("odd", 256), 4)
    # rtol=0: the shift commutes up to diagonalization roundoff only
    assert np.allclose(got.levels, free.levels - 0.5, rtol=0.0, atol=1e-10)


def test_jt_ring_band_validation(jt11):
    with pytest.raises(ValueError):
        jt_ring_problem(jt11, 1.0, grid_size=128, band=2)


def test_jt_ring_barrier_passthrough(jt11):
    prob = jt_ring_problem(jt11, 1.0, grid_size=256, barrier=(2.0, 0.5))
    assert prob.barrier == (2.0, 0.5)
    even = spectrum(prob, 6)
    flipped = RingProblem(radius=prob.radius, grid_size=prob.grid_size,
                          potential=prob.potential, flux_parity="even",
                          barrier=(2.0, 0.5))
    assert np.array_equal(even.levels, spectrum(flipped, 6).levels)
