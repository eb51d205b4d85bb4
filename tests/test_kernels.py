"""Frozen-output and statistical checks for the site-mutation kernel."""

import hashlib

import numpy as np
import pytest

from prenelab import kernels, rng
from prenelab.replicator import MutationProfile, ProfileLengthMismatch, replicate_batch


def _fresh(seed, n=40, L=120):
    gen = rng.stream(seed, 1)
    codes = gen.integers(0, 4, size=(n, L), dtype=np.uint8)
    return codes


# mutate_sites on the 40x120 codes of rng.stream(901, 1) with p = 0.05 and
# draws from rng.stream(901, 2), frozen: flipped sites as row * 120 + col,
# letter codes before and after each flip, sha256 of the mutated matrix
GOLDEN_FLAT_SITES = [
    5, 24, 62, 77, 111, 132, 157, 163, 186, 200, 203, 218, 223, 272, 278, 306, 319, 337,
    386, 389, 398, 422, 433, 442, 449, 454, 486, 587, 599, 676, 687, 703, 715, 751, 761,
    775, 784, 800, 841, 853, 884, 888, 904, 955, 961, 967, 974, 1048, 1085, 1092, 1124,
    1138, 1143, 1158, 1185, 1209, 1212, 1224, 1230, 1259, 1270, 1288, 1296, 1310, 1311,
    1326, 1333, 1346, 1374, 1388, 1411, 1452, 1459, 1474, 1476, 1493, 1513, 1514, 1523,
    1545, 1548, 1551, 1598, 1608, 1618, 1621, 1635, 1641, 1680, 1695, 1765, 1787, 1830,
    1862, 1870, 1906, 1932, 1937, 1939, 1945, 1961, 1965, 2007, 2014, 2021, 2141, 2153,
    2154, 2166, 2209, 2212, 2248, 2280, 2290, 2338, 2383, 2393, 2402, 2447, 2462, 2480,
    2501, 2533, 2536, 2585, 2587, 2617, 2619, 2631, 2655, 2669, 2695, 2707, 2721, 2722,
    2751, 2761, 2773, 2793, 2800, 2851, 2860, 2956, 2972, 3016, 3062, 3096, 3106, 3136,
    3289, 3338, 3372, 3389, 3416, 3447, 3471, 3474, 3486, 3488, 3497, 3508, 3524, 3526,
    3543, 3545, 3546, 3565, 3577, 3578, 3582, 3647, 3696, 3705, 3714, 3735, 3740, 3744,
    3796, 3818, 3833, 3861, 3896, 3923, 3930, 3931, 3939, 3944, 3966, 3983, 4018, 4025,
    4090, 4104, 4211, 4212, 4311, 4314, 4330, 4335, 4349, 4380, 4394, 4406, 4423, 4431,
    4440, 4508, 4528, 4563, 4566, 4589, 4606, 4640, 4643, 4697, 4716, 4743, 4758
]
GOLDEN_OLD = (
    "033121012010023033320210223202012002000121131221011300022333030110300103"
    "012120131103202113033000203200001031102310332310321221100230101100320311"
    "333310120221010130302002130310231310000110003113013011303032331012312301"
    "03"
)
GOLDEN_NEW = (
    "110213330202112101211033310013103230111012202102220131331102113322121011"
    "220311323312133020300221032013222200331103020201113030331312010323131130"
    "100102001010202312123323311101112033122331211200300200111223000201031222"
    "10"
)
GOLDEN_CODES_SHA256 = "49fead212e1628603f60df4dd52fd3e978cc3a55948ee644f0dc7ed8845a926a"


def test_frozen_golden_mutation():
    codes = _fresh(901)
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(codes.shape[1], 0.05)), rng.stream(901, 2)
    )
    expected_rows, expected_cols = np.divmod(np.array(GOLDEN_FLAT_SITES), 120)
    assert rows.tolist() == expected_rows.tolist()
    assert cols.tolist() == expected_cols.tolist()
    assert "".join(map(str, old.tolist())) == GOLDEN_OLD
    assert "".join(map(str, new.tolist())) == GOLDEN_NEW
    assert hashlib.sha256(codes.tobytes()).hexdigest() == GOLDEN_CODES_SHA256


# mutate_sites on the 1100x16 codes of rng.stream(902, 1) with draws from
# rng.stream(902, 2), frozen: a batch of more than 1024 rows under a profile
# of three runs (p = 0.05 on columns 0-3, 0 on 4-5, 0.005 on 6-15), so the
# per-run draw order and the flat-index mapping of every run are pinned;
# sha256 of the flipped sites (row * 16 + col, <i8), of the letter codes
# before and after, and of the mutated matrix
GOLDEN_LARGE_BATCH = {
    "flips": 262,
    "sites": "cfe3295894e6c5e2d1b9e39d2c7666c9a0e940eea91801621123752572acec5a",
    "old": "4f10b580d80c7f88658471eaf68c65c7970bdef8b865175a45ffdfaf4a0327d8",
    "new": "e7cf33e47851f4a53e67bf0647ce2cd5b8ae8d7364bafa55d1ec0f161cfc9c21",
    "codes": "544ff4d82973ab86826fb5faaf90f8b34610f010e4f7ebb198317a5ee1b92e04",
}


def test_frozen_golden_large_batch():
    codes = rng.stream(902, 1).integers(0, 4, size=(1100, 16), dtype=np.uint8)
    prob = np.array([0.05] * 4 + [0.0] * 2 + [0.005] * 10)
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(prob), rng.stream(902, 2)
    )
    assert rows.max() > 1024

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    assert rows.size == GOLDEN_LARGE_BATCH["flips"]
    assert sha((rows * 16 + cols).astype("<i8")) == GOLDEN_LARGE_BATCH["sites"]
    assert sha(old) == GOLDEN_LARGE_BATCH["old"]
    assert sha(new) == GOLDEN_LARGE_BATCH["new"]
    assert sha(codes) == GOLDEN_LARGE_BATCH["codes"]


def test_zero_probability_is_identity():
    codes = _fresh(11)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.zeros(codes.shape[1])), rng.stream(11, 2)
    )
    assert rows.size == 0 and cols.size == 0
    assert np.array_equal(codes, before)


def test_probability_one_flips_everything():
    codes = _fresh(12)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.ones(codes.shape[1])), rng.stream(12, 2)
    )
    assert rows.size == codes.size
    assert np.all(codes != before)  # a flip never reproduces the old letter


def test_flips_reported_in_row_major_order():
    codes = _fresh(13)
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(codes.shape[1], 0.2)), rng.stream(13, 2)
    )
    flat = rows.astype(np.int64) * codes.shape[1] + cols
    assert np.all(np.diff(flat) > 0)


def test_reported_old_new_match_matrix():
    gen = rng.stream(14, 1)
    codes = gen.integers(0, 4, size=(30, 80), dtype=np.uint8)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(80, 0.1)), rng.stream(14, 2)
    )
    assert np.array_equal(before[rows, cols], old)
    assert np.array_equal(codes[rows, cols], new)
    assert np.all(old != new)
    untouched = np.ones_like(codes, dtype=bool)
    untouched[rows, cols] = False
    assert np.array_equal(codes[untouched], before[untouched])


def test_letters_stay_in_alphabet():
    codes = _fresh(15)
    kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(codes.shape[1], 0.5)), rng.stream(15, 2)
    )
    assert codes.max() <= 3


@pytest.mark.parametrize("p", [0.002, 0.05, 0.3])
def test_empirical_site_rate(p):
    # n*L = 2e5 sites: observed rate within 4 sigma of p
    gen = rng.stream(16, 1)
    codes = gen.integers(0, 4, size=(2000, 100), dtype=np.uint8)
    rows, _, _, _ = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(100, p)), rng.stream(16, 2, int(p * 1e6))
    )
    n_sites = codes.size
    sigma = (p * (1 - p) / n_sites) ** 0.5
    # false-failure rate about 6.3e-5 per p (one two-sided 4-sigma normal comparison)
    assert abs(rows.size / n_sites - p) < 4 * sigma


def test_replacement_letters_uniform_over_other_three():
    gen = rng.stream(17, 1)
    codes = np.zeros((3000, 40), dtype=np.uint8)  # all letter 0
    _, _, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(40, 0.5)), rng.stream(17, 2)
    )
    counts = np.bincount(new, minlength=4)
    assert counts[0] == 0
    total = counts.sum()
    for letter in (1, 2, 3):
        frac = counts[letter] / total
        sigma = (1 / 3 * 2 / 3 / total) ** 0.5
        # false-failure rate about 1.9e-4 (3 letters x 6.3e-5 per two-sided 4-sigma comparison)
        assert abs(frac - 1 / 3) < 4 * sigma


def test_per_site_probabilities_respected():
    # half the columns silent, half certain: flips land exactly where allowed
    prob = np.zeros(60)
    prob[30:] = 1.0
    gen = rng.stream(18, 1)
    codes = gen.integers(0, 4, size=(50, 60), dtype=np.uint8)
    rows, cols, _, _ = kernels.mutate_sites(codes, kernels.constant_runs(prob), rng.stream(18, 2))
    assert cols.min() >= 30
    assert rows.size == 50 * 30


UNIFORM_05 = MutationProfile.uniform(0.05, 120)


@pytest.mark.parametrize("layout", ["fortran", "strided", "sliced"])
@pytest.mark.parametrize("mutate", [
    lambda codes, gen: kernels.mutate_sites(codes, UNIFORM_05.runs, gen),
    lambda codes, gen: replicate_batch(codes, UNIFORM_05, gen),
], ids=["mutate_sites", "replicate_batch"])
def test_any_layout_is_mutated_in_place_like_c_order(layout, mutate):
    # reshape(-1) copies a matrix that is not C-contiguous (a Fortran-order
    # one, or a column slice of a wider one; big[:, ::2] still flattens to a
    # view), yet the flips must land in the caller's matrix exactly as in a
    # C-contiguous twin
    twin = _fresh(23)
    if layout == "fortran":
        big = codes = np.asfortranarray(twin)
        cols = slice(None)
    else:
        cols = slice(None, None, 2) if layout == "strided" else slice(60, 180)
        big = np.zeros((40, 240), dtype=np.uint8)
        big[:, cols] = twin
        codes = big[:, cols]
    assert not codes.flags.c_contiguous
    before = big.copy()
    got = mutate(codes, rng.stream(23, 2))
    want = mutate(twin, rng.stream(23, 2))
    assert want[0].size > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(codes, twin)
    assert not np.array_equal(big, before)
    outside = np.ones(big.shape[1], dtype=bool)
    outside[cols] = False
    assert np.array_equal(big[:, outside], before[:, outside])


def test_shape_validation():
    # the kernel trusts its input; replicate_batch is where it is checked
    codes = _fresh(19)
    with pytest.raises(ProfileLengthMismatch):
        replicate_batch(codes, MutationProfile.uniform(0.1, 7), rng.stream(19, 2))
    with pytest.raises(ValueError):
        replicate_batch(codes[0], MutationProfile.uniform(0.1, 120), rng.stream(19, 2))


# The sampler draws a flip count per constant-rate run, then which sites of
# the run flip: each run must still flip at its own rate, sites independently.
SHELLS = MutationProfile.shells([20, 50, 80], [0.0, 0.002, 0.02, 0.2], 100)


def test_each_run_flips_at_its_own_rate():
    codes = rng.stream(20, 1).integers(0, 4, size=(2000, 100), dtype=np.uint8)
    rows, cols, _, _ = kernels.mutate_sites(
        codes, kernels.constant_runs(SHELLS.site_prob), rng.stream(20, 2)
    )
    assert not np.any(cols < 20)  # the p == 0 core never flips
    for start, stop, p in ((20, 50, 0.002), (50, 80, 0.02), (80, 100, 0.2)):
        n_sites = 2000 * (stop - start)
        sigma = (p * (1 - p) / n_sites) ** 0.5
        rate = np.count_nonzero((cols >= start) & (cols < stop)) / n_sites
        # false-failure rate about 1.9e-4 (3 runs x 6.3e-5 per two-sided 4-sigma comparison)
        assert abs(rate - p) < 4 * sigma, (start, rate)
    # within the p = 0.2 run, every column flips at p
    per_col = np.bincount(cols[cols >= 80] - 80, minlength=20) / 2000
    # false-failure rate about 1.3e-3 (20 columns x 6.3e-5 per two-sided 4-sigma comparison)
    assert np.all(np.abs(per_col - 0.2) < 4 * (0.2 * 0.8 / 2000) ** 0.5)


def test_no_site_reported_twice_and_strictly_row_major():
    codes = rng.stream(21, 1).integers(0, 4, size=(500, 100), dtype=np.uint8)
    rows, cols, _, _ = kernels.mutate_sites(
        codes, kernels.constant_runs(SHELLS.site_prob), rng.stream(21, 2)
    )
    flat = rows * 100 + cols
    assert np.unique(flat).size == flat.size
    assert np.all(np.diff(flat) > 0)


@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_row_batches(n):
    codes = np.zeros((n, 100), dtype=np.uint8)
    rows, cols, old, new = kernels.mutate_sites(
        codes, kernels.constant_runs(np.full(100, 0.5)), rng.stream(22, n)
    )
    assert rows.size == cols.size == old.size == new.size == np.count_nonzero(codes)
    assert np.all(rows == 0) and np.all(np.diff(cols) > 0)
    if n:
        assert 0 < rows.size < 100


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_out_of_range_probability_raises(bad):
    # the kernel's runs come from a profile, which refuses such a probability
    prob = np.full(10, 0.1)
    prob[3] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        MutationProfile(prob)


def test_constant_runs_skip_silent_runs():
    assert kernels.constant_runs(SHELLS.site_prob) == ((20, 30, 0.002), (50, 30, 0.02), (80, 20, 0.2))
    assert kernels.constant_runs(np.zeros(5)) == ()
    assert kernels.constant_runs(np.array([0.1, 0.1, 0.0, 0.1])) == ((0, 2, 0.1), (3, 1, 0.1))


def test_profile_runs_draw_as_derived_runs():
    assert SHELLS.runs == kernels.constant_runs(SHELLS.site_prob)


def test_profile_probabilities_are_frozen():
    prob = np.full(10, 0.1)
    profile = MutationProfile(prob)
    prob[0] = 0.5  # the caller's array stays writable, the profile keeps a copy
    assert profile.site_prob[0] == 0.1
    with pytest.raises(ValueError, match="read-only"):
        profile.site_prob[0] = 0.5
