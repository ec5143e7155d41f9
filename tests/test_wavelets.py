"""Orthonormal wavelet systems, coefficient grids, and sequence norms."""

import itertools
import math

import numpy as np
import pytest

from klab import wavelets
from klab.errors import InvalidParams, Unsupported
from klab.wavelets import (CASCADE_K, REGULARITY, CoefficientGrid,
                           build_wavelet_system, daubechies_filter,
                           estimate_holder_regularity, f_sequence_norm,
                           filter_orthonormality_defect,
                           wavelet_coefficients)


def test_shortest_filter_known_values():
    # closed-form 4-tap orthonormal filter: ((1±sqrt(3)), (3±sqrt(3)))/(4 sqrt 2)
    h = daubechies_filter(2)
    s3 = math.sqrt(3.0)
    want = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
    # either spectral-factor orientation is a valid orthonormal filter
    assert np.allclose(h, want, atol=1e-13) \
        or np.allclose(h, want[::-1], atol=1e-13)


@pytest.mark.parametrize("N", range(2, 11))
def test_filter_sum_rules(N):
    h = daubechies_filter(N)
    assert len(h) == 2 * N
    assert np.sum(h) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # vanishing moments: sum (-1)^k k^j h_k = 0 for j < N
    k = np.arange(len(h))
    for jmom in range(N):
        moment = abs(np.sum((-1.0) ** k * k ** jmom * h))
        scale = float(np.sum(k ** jmom * np.abs(h))) or 1.0
        assert moment / scale < 1e-10
    assert filter_orthonormality_defect(h) < 1e-12


def test_haar_filter():
    assert np.allclose(daubechies_filter(1),
                       [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_build_system_picks_enough_regularity():
    for m in (1, 2, 3):
        system = build_wavelet_system(m)
        assert system.regularity_order > m
        # and it is the shortest table entry that clears the bar
        shorter = [n for n, r in REGULARITY.items()
                   if n < system.order and r > m]
        assert not shorter


def test_build_system_unsupported_order():
    with pytest.raises(Unsupported):
        build_wavelet_system(4)


def test_cascade_partition_of_unity():
    # scaling function translates sum to 1 (stable cascade normalization):
    # phi(x + k) over k = 0 .. F - 2, at every grid point x in [0, 1)
    phi = wavelets._cascade(build_wavelet_system(1).filter)
    step = 2 ** CASCADE_K
    total = sum(phi[k * step:(k + 1) * step] for k in range(len(phi) // step))
    assert np.allclose(total, 1.0, atol=1e-9)


def test_estimated_regularity_matches_table():
    system = build_wavelet_system(1)
    est = estimate_holder_regularity(system.filter)
    assert est == pytest.approx(REGULARITY[system.order], abs=0.15)


@pytest.fixture(scope="module")
def sys1():
    return build_wavelet_system(1)


def test_zero_function_zero_grid(sys1):
    grid = wavelet_coefficients(lambda x: np.zeros(x.shape[1]), sys1, 4,
                                ((-1.0,), (1.0,)))
    assert grid.sum_of_squares() == 0.0


def test_sequence_norm_of_zero_grid_is_zero(sys1):
    grid = wavelet_coefficients(lambda x: np.zeros(x.shape[1]), sys1, 4,
                                ((-1.0,), (1.0,)))
    nv = f_sequence_norm(grid, s=1.0, tau=0.8)
    assert (nv.value, nv.truncations, nv.classification, nv.tail_share) == (
        0.0, [(2.0 ** -4, 0.0)], "Finite", 0.0)


@pytest.mark.parametrize("level,share,classification", [
    (0, 0.0, "Finite"), (4, 1.0, "Inconclusive")])
def test_sequence_norm_classifies_by_its_tail_share(level, share,
                                                    classification):
    # one coefficient: at level 0 the finer levels add nothing to the
    # integral; at the finest level the last three levels carry all of it
    grid = CoefficientGrid(d=1, J=5)
    for j in range(5):
        genders = ["D"] + (["A"] if j == 0 else [])
        grid.levels[j] = {g: ((0,), np.zeros(4)) for g in genders}
    grid.levels[level]["D"][1][1] = 1.0
    nv = f_sequence_norm(grid, s=1.0, tau=0.8)
    assert (nv.tail_share, nv.classification) == (share, classification)


def _fine_box_by_nonzero(coeffs):
    """Support box from the index arrays of every band's nonzero entries."""
    lo = np.full(coeffs.d, np.inf)
    hi = np.full(coeffs.d, -np.inf)
    for j, bands in coeffs.levels.items():
        for origin, arr in bands.values():
            nz = np.nonzero(arr)
            if not len(nz[0]):
                continue
            for ax in range(coeffs.d):
                lo[ax] = min(lo[ax], (origin[ax] + nz[ax].min()) * 2.0 ** -j)
                hi[ax] = max(hi[ax], (origin[ax] + nz[ax].max() + 1) * 2.0 ** -j)
    if not np.all(np.isfinite(lo)):
        return None
    return np.floor(lo).astype(int), np.ceil(hi).astype(int)


def _hulls_by_nonzero(coeffs):
    """Per level j, the hull in level-j cells of the nonzero entries of the
    levels >= j, from the index arrays of every band's nonzero entries."""
    levels = sorted(coeffs.levels)
    out = []
    for j in levels:
        lo, hi = [], []
        for i in levels[levels.index(j):]:
            f = 2 ** (i - j)
            for origin, arr in coeffs.levels[i].values():
                k = np.array(np.nonzero(arr)).T + np.asarray(origin)
                lo += list(k // f)
                hi += list(-(-(k + 1) // f))
        out.append((np.min(lo, axis=0), np.max(hi, axis=0)) if lo else None)
    return out


def _check_hulls(coeffs):
    """`_fine_box` and every level's `_support_hulls` entry against the
    index arrays of the nonzero entries."""
    expected = _fine_box_by_nonzero(coeffs)
    box = wavelets._fine_box(coeffs)
    hulls = wavelets._support_hulls(coeffs, sorted(coeffs.levels))
    if expected is None:
        assert box is None and hulls == [None] * len(hulls)
        return
    assert np.array_equal(box[0], expected[0])
    assert np.array_equal(box[1], expected[1])
    for hull, want in zip(hulls, _hulls_by_nonzero(coeffs), strict=True):
        assert (hull is None) == (want is None)
        if want is not None:
            assert np.array_equal(hull[0], want[0])
            assert np.array_equal(hull[1], want[1])


def _clipped_bump(center, radius):
    """A C^2 bump that is exactly zero outside a ball off the box centre."""
    def u(x):
        r2 = np.sum((x - np.asarray(center)[:, None]) ** 2, axis=0)
        return np.clip(1.0 - r2 / radius ** 2, 0.0, None) ** 3
    return u


@pytest.mark.parametrize("center,radius,J", [
    ((0.3,), 0.4, 6), ((-1.1,), 0.2, 7),
    ((0.6, -0.9), 0.3, 5), ((-1.2, 0.1), 0.5, 4),
    ((0.2, -0.4, 0.9), 0.3, 3)])
def test_fine_box_matches_nonzero_search(sys1, center, radius, J):
    d = len(center)
    grid = wavelet_coefficients(_clipped_bump(center, radius), sys1, J,
                                ((-2.0,) * d, (2.0,) * d))
    _check_hulls(grid)
    # zero the finest level's bands and every other coarse band
    for j, bands in grid.levels.items():
        for n, gender in enumerate(sorted(bands)):
            origin, arr = bands[gender]
            if j == J - 1 or n % 2:
                bands[gender] = (origin, np.zeros_like(arr))
    _check_hulls(grid)
    assert wavelets._support_hulls(grid, sorted(grid.levels))[-1] is None
    for bands in grid.levels.values():
        for gender, (origin, arr) in bands.items():
            bands[gender] = (origin, np.zeros_like(arr))
    _check_hulls(grid)


def test_support_hulls_of_lone_fine_coefficients():
    # a lone finest-level coefficient at an odd cell sets every coarser
    # hull: its upper edge rounds up, its lower edge down (also below 0)
    grid = CoefficientGrid(d=2, J=3)
    for j in range(3):
        genders = ["AD", "DA", "DD"] + (["AA"] if j == 0 else [])
        grid.levels[j] = {g: ((-6, -6), np.zeros((12, 12))) for g in genders}
    grid.levels[2]["DA"][1][6 + 1, 6 + 4] = 1.0       # level-2 cell (1, 4)
    _check_hulls(grid)
    hulls = wavelets._support_hulls(grid, [0, 1, 2])
    assert [(list(lo), list(hi)) for lo, hi in hulls] == [
        ([0, 1], [1, 2]), ([0, 2], [1, 3]), ([1, 4], [2, 5])]
    grid.levels[1]["AD"][1][6 - 3, 6 + 0] = 2.0       # level-1 cell (-3, 0)
    _check_hulls(grid)
    assert list(wavelets._support_hulls(grid, [0, 1, 2])[0][0]) == [-2, 0]


def synthesized_wavelet(system, J, j0=3, k0=1):
    """A d = 1 function whose sampled level-J scaling coefficients are
    those of the single wavelet psi_{j0,k0}: Mallat's synthesis filter
    bank A_n = sum_k a_k f_{n-2k} applied to the level-j0 detail impulse,
    with f = g once and then f = h up to level J.  The analysis of the
    orthonormal bank inverts it exactly, up to rounding."""
    origin, coeffs = k0, np.ones(1)
    for filt in [system.gfilter] + [system.filter] * (J - j0 - 1):
        up = np.zeros(2 * len(coeffs) - 1)
        up[::2] = coeffs
        origin, coeffs = 2 * origin, np.convolve(up, filt)

    def u(x):
        # the sampler evaluates u at 2^-J (k + mu) and scales by 2^(-J/2)
        k = np.rint(x[0] * 2.0 ** J - system.first_moment).astype(int) \
            - origin
        inside = (k >= 0) & (k < len(coeffs))
        out = np.zeros(x.shape[1])
        out[inside] = coeffs[k[inside]] * 2.0 ** (J / 2.0)
        return out

    return u


def test_impulse_reconstruction():
    # u = a single level-3 wavelet: its coefficient grid is a unit impulse,
    # for the 6-tap (m = 1) and the 12-tap (m = 2) filters
    for m in (1, 2):
        system = build_wavelet_system(m)
        grid = wavelet_coefficients(synthesized_wavelet(system, 7), system,
                                    7, ((-2.0,), (2.0,)))
        seen = 0
        for j, genders in grid.levels.items():
            for gender, ((o,), arr) in genders.items():
                want = np.zeros_like(arr)
                if (j, gender) == (3, "D"):
                    want[1 - o] = 1.0
                    seen += 1
                assert np.max(np.abs(arr - want)) <= 1e-12, (m, j, gender)
        assert seen == 1


def test_parseval_1d(sys1):
    # smooth compactly supported sample: sum of squares -> L2^2
    def u(x):
        t = np.clip(x[0], -1.0, 1.0)
        return np.cos(0.5 * math.pi * t) ** 2 * (np.abs(x[0]) <= 1.0)

    grid = wavelet_coefficients(u, sys1, 9, ((-2.0,), (2.0,)))
    # int_{-1}^{1} cos(pi t / 2)^4 dt = 3/4
    assert grid.sum_of_squares() == pytest.approx(0.75, rel=1e-3)


def test_sequence_norm_tau2_s0_is_l2(sys1):
    def u(x):
        return np.exp(-4.0 * x[0] ** 2)

    grid = wavelet_coefficients(u, sys1, 8, ((-2.0,), (2.0,)))
    nv = f_sequence_norm(grid, s=0.0, tau=2.0)
    assert nv.value ** 2 == pytest.approx(grid.sum_of_squares(), rel=1e-10)


def fine_grid_partial_norms(grid, s, tau):
    """Partial norms straight from the definition: every level's squared
    coefficients spread over its cubes on the finest dyadic grid."""
    d, J = grid.d, grid.J
    bands = [(j, np.asarray(o), a) for j, bs in grid.levels.items()
             for o, a in bs.values()]
    lo = np.min([np.floor(o * 2.0 ** -j) for j, o, _ in bands], axis=0)
    hi = np.max([np.ceil((o + a.shape) * 2.0 ** -j) for j, o, a in bands],
                axis=0)
    sq = np.zeros(tuple(((hi - lo) * 2 ** J).astype(int)))
    out = []
    for j in sorted(grid.levels):
        f = 2 ** (J - j)
        for o, a in grid.levels[j].values():
            block = np.kron(a ** 2, np.ones((f,) * d)) * 4.0 ** (j * (s + d / 2))
            start = ((o - lo * 2 ** j) * f).astype(int)
            sq[tuple(map(slice, start, start + block.shape))] += block
        out.append((np.sum(sq ** (tau / 2)) * 2.0 ** (-J * d)) ** (1 / tau))
    return out


@pytest.mark.parametrize("d, s, tau", [(1, 1.0, 0.8), (2, 1.0, 0.9),
                                       (2, 0.0, 2.0)])
def test_sequence_norm_matches_fine_grid_square_function(sys1, d, s, tau):
    def u(x):
        return np.exp(-2.0 * np.sum(x ** 2, axis=0)) * (x[0] > -0.3)

    grid = wavelet_coefficients(u, sys1, 5, ((-2.0,) * d, (2.0,) * d))
    nv = f_sequence_norm(grid, s=s, tau=tau)
    assert [v for _, v in nv.truncations] == pytest.approx(
        fine_grid_partial_norms(grid, s, tau), rel=1e-12)


def _zero_finest_levels(grid, count):
    for j in range(grid.J - count, grid.J):
        for gender, (origin, arr) in grid.levels[j].items():
            grid.levels[j][gender] = (origin, np.zeros_like(arr))
    return grid


def _ragged_bands(grid):
    """Crop the bands of two middle levels to different sub-boxes, so the
    bands of a level differ in extent and finer levels reach past coarser
    ones."""
    for j, keep in ((grid.J - 2, ((0.0, 0.5), (0.5, 1.0), (0.25, 0.75))),
                    (grid.J - 3, ((0.4, 0.6),) * 3)):
        for (gender, (origin, arr)), (f0, f1) in zip(
                sorted(grid.levels[j].items()), keep):
            start = [int(f0 * n) for n in arr.shape]
            stop = [max(int(f1 * n), a + 1) for a, n in zip(start, arr.shape)]
            grid.levels[j][gender] = (
                tuple(o + a for o, a in zip(origin, start)),
                arr[tuple(map(slice, start, stop))].copy())
    return grid


ACTIVE_BOX_GRIDS = {
    # d = 3, the support off the box centre on every axis
    "d3": lambda: wavelet_coefficients(
        _clipped_bump((0.2, -0.4, 0.9), 0.6), build_wavelet_system(1), 3,
        ((-2.0,) * 3, (2.0,) * 3)),
    # m = 2: 12-tap filters, so the coarse bands reach far past the box
    "m2": lambda: wavelet_coefficients(
        lambda x: np.exp(-2.0 * np.sum(x ** 2, axis=0)) * (x[0] > -0.3),
        build_wavelet_system(2), 4, ((-2.0, -2.0), (2.0, 2.0))),
    # an off-centre u: the active boxes are asymmetric
    "off-centre": lambda: wavelet_coefficients(
        _clipped_bump((0.6, -0.9), 0.3), build_wavelet_system(1), 5,
        ((-2.0, -2.0), (2.0, 2.0))),
    "finest-zero": lambda: _zero_finest_levels(wavelet_coefficients(
        _clipped_bump((-0.7, 0.4), 0.5), build_wavelet_system(2), 5,
        ((-2.0, -2.0), (2.0, 2.0))), 2),
    # one level-3 wavelet: every other coefficient is at rounding level
    "impulse": lambda: wavelet_coefficients(
        synthesized_wavelet(build_wavelet_system(1), 7),
        build_wavelet_system(1), 7, ((-2.0,), (2.0,))),
    "ragged": lambda: _ragged_bands(wavelet_coefficients(
        _clipped_bump((0.3, 0.5), 0.8), build_wavelet_system(1), 5,
        ((-2.0, -2.0), (2.0, 2.0)))),
}


@pytest.mark.parametrize("s, tau", [(1.0, 0.9), (1.0, 1.0), (2.0, 0.7)])
@pytest.mark.parametrize("case", sorted(ACTIVE_BOX_GRIDS))
def test_sequence_norm_on_active_boxes_matches_fine_grid(case, s, tau):
    # the nested active boxes of f_sequence_norm against the square
    # function spread over every cell of the finest grid
    grid = ACTIVE_BOX_GRIDS[case]()
    nv = f_sequence_norm(grid, s=s, tau=tau)
    assert [v for _, v in nv.truncations] == pytest.approx(
        fine_grid_partial_norms(grid, s, tau), rel=1e-12)


@pytest.mark.parametrize("case", sorted(ACTIVE_BOX_GRIDS))
def test_support_hulls_on_active_box_grids(case):
    _check_hulls(ACTIVE_BOX_GRIDS[case]())


def test_sequence_norm_guards_sigma(sys1):
    def u(x):
        return np.exp(-4.0 * x[0] ** 2)

    grid = wavelet_coefficients(u, sys1, 6, ((-2.0,), (2.0,)))
    with pytest.raises(InvalidParams):
        f_sequence_norm(grid, s=0.0, tau=0.5)  # sigma = 1 > 0


def test_coefficient_decay_of_smooth_function(sys1):
    # C^inf function: detail coefficients decay at least like 2^{-3j/2}
    def u(x):
        return np.exp(-x[0] ** 2)

    grid = wavelet_coefficients(u, sys1, 8, ((-3.0,), (3.0,)))
    # below level ~5 the one-point sampling projection floor dominates, so
    # only the resolved levels witness the smoothness decay
    peaks = [max(np.max(np.abs(arr)) for _, arr in grid.levels[j].values())
             for j in range(1, 5)]
    slopes = [math.log2(a / b) for a, b in zip(peaks, peaks[1:])]
    assert all(s > 1.4 for s in slopes)


def test_wavelet_system_is_shared_and_read_only():
    system = build_wavelet_system(2)
    assert build_wavelet_system(2) is system
    for arr in (system.filter, system.gfilter):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_2d_parseval_small():
    sys2 = build_wavelet_system(1)

    def u(x):
        return np.exp(-2.0 * (x[0] ** 2 + x[1] ** 2))

    grid = wavelet_coefficients(u, sys2, 6, ((-2.0, -2.0), (2.0, 2.0)))
    # ||u||_2^2 on the box is (int_{-2}^{2} exp(-4 t^2) dt)^2
    one_d = math.sqrt(math.pi) / 2.0 * math.erf(4.0)
    assert grid.sum_of_squares() == pytest.approx(one_d ** 2, rel=1e-3)


def decimated_correlation_reference(arr, origin, filt, axis):
    """a_k = sum_m filt_m A_{m+2k} from its definition: a full convolution
    with the reversed filter along the axis, then the outputs whose global
    index m + 2k - (F - 1) is even-aligned, i.e. every second one."""
    F = len(filt)
    full = np.apply_along_axis(
        lambda v: np.convolve(v, filt[::-1], mode="full"), axis, arr)
    # full[t] = sum_m filt_m A[t - F + 1 + m]: the output k with
    # origin + t - F + 1 = 2k
    ts = [t for t in range(full.shape[axis]) if (origin + t - F + 1) % 2 == 0]
    return np.take(full, ts, axis=axis), (origin + ts[0] - F + 1) // 2


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("shape", [(1,), (3,), (17,), (2, 9), (12, 5),
                                   (3, 1, 8), (5, 7, 4)])
def test_analyze_axis_matches_full_convolution(order, shape):
    system = build_wavelet_system(order)
    filters = (system.filter, system.gfilter)
    bank = np.stack(filters, 1)
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    arr = rng.standard_normal(shape)             # most shorter than F
    for axis in range(len(shape)):
        for origin in (-7, -4, -1, 0, 3, 6):
            got, k0 = wavelets._analyze_axis(arr, origin, bank, axis)
            assert got.shape[-1] == len(filters)
            for i, filt in enumerate(filters):
                want, w0 = decimated_correlation_reference(arr, origin, filt,
                                                           axis)
                assert k0 == w0
                assert got[..., i].shape == want.shape
                assert np.max(np.abs(got[..., i] - want)) \
                    <= 1e-14 * np.max(np.abs(want))


def analyze_axis_in_place_of_axis(arr, origin, bank, axis):
    """The decimated correlations with the axis left in its place: a
    zero-margined copy, its kept sliding windows along the axis, and one
    matmul of those windows with the bank."""
    F = len(bank)
    L = arr.shape[axis]
    k0 = -(-(origin - F + 1) // 2)
    t0 = 2 * k0 - origin + F - 1
    n = (L + F - t0) // 2
    shape = list(arr.shape)
    shape[axis] += 2 * (F - 1)
    buf = np.zeros(shape)
    inner = [slice(None)] * arr.ndim
    inner[axis] = slice(F - 1, F - 1 + L)
    buf[tuple(inner)] = arr
    windows = np.lib.stride_tricks.sliding_window_view(buf, F, axis=axis)
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(t0, t0 + 2 * n - 1, 2)
    return windows[tuple(sl)] @ bank, k0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("shape", [(40,), (23, 31), (70, 9), (12, 9, 17),
                                   (6, 40, 8, 2)])
def test_analyze_axis_matches_in_place_windows_bit_for_bit(order, shape):
    """1D, 2D and 3D arrays as the transform makes them, and a stack with a
    gender axis.

    Both forms sum each window's F products in the same order, but not in
    the same kernel: the reference's passes along the last axis run
    numpy's own matmul loop (its window stride of two entries is below F,
    so numpy does not hand it to BLAS), while `_analyze_axis` hands every
    multi-dimensional pass to BLAS gemm.  Equal bits were checked with
    numpy 2.4.6 and its bundled OpenBLAS 0.3.31; a BLAS whose gemm rounds
    differently (one that fuses multiply and add, say) may move outputs
    by an ulp and fail this test while the reports stay within 1e-10.
    """
    system = build_wavelet_system(order)
    bank = np.stack([system.filter, system.gfilter], 1)
    arr = np.random.default_rng(sum(shape)).standard_normal(shape)
    for axis in range(len(shape)):
        for origin in (-9, -4, 0, 5):
            got, k0 = wavelets._analyze_axis(arr, origin, bank, axis)
            want, w0 = analyze_axis_in_place_of_axis(arr, origin, bank, axis)
            assert k0 == w0 and got.shape == want.shape
            assert np.array_equal(got, want), (axis, origin)


def test_coefficients_match_in_place_windows_bit_for_bit(monkeypatch):
    # bit identity depends on the BLAS build, as in the test above
    system = build_wavelet_system(1)

    def u(x):
        return np.exp(-np.sum(x ** 2, axis=0)) * (1.0 + x[0] - 0.5 * x[1])

    box = ((-1.0, -2.0), (2.0, 1.0))
    grid = wavelet_coefficients(u, system, 4, box)
    monkeypatch.setattr(wavelets, "_analyze_axis",
                        analyze_axis_in_place_of_axis)
    want = wavelet_coefficients(u, system, 4, box)
    assert grid.levels.keys() == want.levels.keys()
    for j, bands in want.levels.items():
        assert list(grid.levels[j]) == list(bands)
        for gender, (origin, arr) in bands.items():
            assert grid.levels[j][gender][0] == origin
            assert np.array_equal(grid.levels[j][gender][1], arr)
            assert grid.levels[j][gender][1].flags.c_contiguous


def capture_first_analysis(monkeypatch):
    """Record the (array, origin) of the first `_analyze_axis` call: the
    level-J scaling coefficients and the origin along axis 0."""
    seen = []
    analyze = wavelets._analyze_axis

    def first_input(arr, origin, bank, axis):
        if not seen:
            seen.append((arr.copy(), origin))
        return analyze(arr, origin, bank, axis)

    monkeypatch.setattr(wavelets, "_analyze_axis", first_input)
    return seen


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("d", [2, 3])
def test_gender_bands_compose_axis_by_axis(monkeypatch, m, d):
    # band G of a level is the decimated correlation along axis i with h
    # where G_i = 'A' and with g where G_i = 'D'; u is not symmetric under
    # swapping axes, so a band filed under the wrong gender fails
    system = build_wavelet_system(m)
    filters = {"A": system.filter, "D": system.gfilter}

    def u(x):
        return np.exp(-np.sum(x ** 2, axis=0)) * (1.0 + np.arange(1, d + 1)
                                                 @ x)

    seen = capture_first_analysis(monkeypatch)
    J = 2
    grid = wavelet_coefficients(u, system, J, ((-1.0,) * d, (1.0,) * d))
    data, o0 = seen[0]
    # rounding scales with the input; detail bands of a smooth u are small
    # by cancellation
    tol = 1e-14 * np.max(np.abs(data))
    bands = grid.levels[J - 1]
    assert list(bands) == ["".join(g) for g in itertools.product("AD",
                                                                 repeat=d)][1:]
    for gender, (origin, got) in bands.items():
        want, o = data, [o0] * d                 # the box is a cube
        for axis, c in enumerate(gender):
            want, o[axis] = decimated_correlation_reference(
                want, o[axis], filters[c], axis)
        assert origin == tuple(o)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol
        swapped = gender[::-1]
        if swapped != gender:
            assert np.max(np.abs(bands[swapped][1] - want)) > 1e3 * tol
