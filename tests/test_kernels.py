"""Frozen-output and statistical checks for the site-mutation kernel."""

import hashlib

import numpy as np
import pytest

from prenelab import kernels, rng


def _fresh(seed, n=40, L=120):
    gen = rng.stream(seed, 1)
    codes = gen.integers(0, 4, size=(n, L), dtype=np.uint8)
    return codes


# mutate_sites on the 40x120 codes of rng.stream(901, 1) with p = 0.05 and
# draws from rng.stream(901, 2), frozen: flipped sites as row * 120 + col,
# letter codes before and after each flip, sha256 of the mutated matrix
GOLDEN_FLAT_SITES = [
    11, 22, 42, 49, 100, 110, 122, 140, 142, 148, 161, 167, 174, 183, 242, 252, 254,
    274, 285, 333, 334, 335, 345, 350, 365, 394, 402, 442, 463, 481, 520, 529, 538, 539,
    587, 609, 639, 640, 644, 660, 679, 699, 700, 704, 723, 732, 764, 770, 775, 781, 791,
    796, 824, 865, 877, 881, 889, 895, 902, 903, 976, 977, 983, 997, 1024, 1029, 1057,
    1060, 1078, 1121, 1159, 1186, 1194, 1202, 1224, 1226, 1261, 1276, 1298, 1310, 1325,
    1328, 1343, 1357, 1461, 1474, 1477, 1496, 1497, 1518, 1613, 1656, 1664, 1686, 1699,
    1704, 1714, 1734, 1741, 1757, 1767, 1779, 1783, 1826, 1870, 1876, 1933, 1954, 2059,
    2065, 2130, 2162, 2211, 2238, 2257, 2271, 2283, 2303, 2320, 2322, 2331, 2378, 2391,
    2402, 2413, 2424, 2458, 2486, 2503, 2511, 2532, 2552, 2562, 2594, 2599, 2630, 2660,
    2665, 2699, 2728, 2737, 2798, 2811, 2819, 2828, 2858, 2872, 2887, 2894, 2918, 2931,
    2949, 2975, 2982, 2990, 2991, 3005, 3046, 3062, 3067, 3083, 3084, 3110, 3111, 3137,
    3139, 3141, 3143, 3152, 3172, 3178, 3200, 3223, 3225, 3240, 3242, 3247, 3250, 3253,
    3267, 3332, 3334, 3350, 3353, 3361, 3391, 3394, 3397, 3427, 3431, 3454, 3459, 3470,
    3513, 3524, 3603, 3625, 3651, 3663, 3675, 3677, 3679, 3685, 3697, 3711, 3720, 3727,
    3734, 3749, 3750, 3769, 3784, 3786, 3817, 3823, 3836, 3849, 3863, 3876, 3877, 3883,
    3887, 3889, 3895, 3965, 3981, 3990, 4037, 4064, 4068, 4121, 4125, 4137, 4142, 4143,
    4187, 4247, 4248, 4268, 4274, 4349, 4414, 4428, 4459, 4502, 4523, 4538, 4571, 4583,
    4596, 4631, 4635, 4641, 4644, 4665, 4682, 4688, 4700, 4725, 4730, 4739, 4741, 4763,
    4764, 4778
]
GOLDEN_OLD = (
    "322221031130002002031123110132013231002331113020023220313333030212211221"
    "300233221211311300203123200113112130101332330312100011022202202311022120"
    "123332211202223003310202233000320101023313120211323121130110221210121232"
    "2030320210213232223021212101020021202131003311011"
)
GOLDEN_NEW = (
    "213113202003111223310000202203332302231222222102210333030121212131330312"
    "111011013100220032120332022202231001333110012200033130211023313033110012"
    "201200103311312210132023302131132212330032011033201200312232310031210323"
    "3201032002101001311103320022312130021020222223232"
)
GOLDEN_CODES_SHA256 = "47de823abaa892fd5f784d30bd8b75302a7e8c9d2c0a14bdf03a77a63b9d1a95"


def test_frozen_golden_mutation():
    codes = _fresh(901)
    rows, cols, old, new = kernels.mutate_sites(
        codes, np.full(codes.shape[1], 0.05), rng.stream(901, 2)
    )
    expected_rows, expected_cols = np.divmod(np.array(GOLDEN_FLAT_SITES), 120)
    assert rows.tolist() == expected_rows.tolist()
    assert cols.tolist() == expected_cols.tolist()
    assert "".join(map(str, old.tolist())) == GOLDEN_OLD
    assert "".join(map(str, new.tolist())) == GOLDEN_NEW
    assert hashlib.sha256(codes.tobytes()).hexdigest() == GOLDEN_CODES_SHA256


# mutate_sites on the 1100x16 codes of rng.stream(902, 1) with p = 0.05 and
# draws from rng.stream(902, 2), frozen: three row chunks, so the chunk row
# offset is exercised; sha256 of the flipped sites (row * 16 + col, <i8),
# of the letter codes before and after, and of the mutated matrix
GOLDEN_MULTI_CHUNK = {
    "flips": 869,
    "sites": "461a3e1b1b7b01ea1c28c5966d3c70ed3cf52eb996014a456b4d12108e9cecb0",
    "old": "f5c8bcb55661c32abb5b9faed5036b4528369d3512be83fc010637fa1ecea95d",
    "new": "c9073813d38eed570ca8c6d4d3a1c8465a8334bc0faf4ea36ea0705e7ddaf4d9",
    "codes": "31baac7e42d161a9548648c65afcdb65204a3c1403292ba04965de3e679015c6",
}


def test_frozen_golden_multi_chunk():
    codes = rng.stream(902, 1).integers(0, 4, size=(1100, 16), dtype=np.uint8)
    assert codes.shape[0] > 2 * kernels._CHUNK_ROWS
    rows, cols, old, new = kernels.mutate_sites(codes, np.full(16, 0.05), rng.stream(902, 2))
    assert rows.max() >= 2 * kernels._CHUNK_ROWS

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    assert rows.size == GOLDEN_MULTI_CHUNK["flips"]
    assert sha((rows * 16 + cols).astype("<i8")) == GOLDEN_MULTI_CHUNK["sites"]
    assert sha(old) == GOLDEN_MULTI_CHUNK["old"]
    assert sha(new) == GOLDEN_MULTI_CHUNK["new"]
    assert sha(codes) == GOLDEN_MULTI_CHUNK["codes"]


def test_zero_probability_is_identity():
    codes = _fresh(11)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, np.zeros(codes.shape[1]), rng.stream(11, 2)
    )
    assert rows.size == 0 and cols.size == 0
    assert np.array_equal(codes, before)


def test_probability_one_flips_everything():
    codes = _fresh(12)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, np.ones(codes.shape[1]), rng.stream(12, 2)
    )
    assert rows.size == codes.size
    assert np.all(codes != before)  # a flip never reproduces the old letter


def test_flips_reported_in_row_major_order():
    codes = _fresh(13)
    rows, cols, old, new = kernels.mutate_sites(
        codes, np.full(codes.shape[1], 0.2), rng.stream(13, 2)
    )
    flat = rows.astype(np.int64) * codes.shape[1] + cols
    assert np.all(np.diff(flat) > 0)


def test_reported_old_new_match_matrix():
    gen = rng.stream(14, 1)
    codes = gen.integers(0, 4, size=(30, 80), dtype=np.uint8)
    before = codes.copy()
    rows, cols, old, new = kernels.mutate_sites(
        codes, np.full(80, 0.1), rng.stream(14, 2)
    )
    assert np.array_equal(before[rows, cols], old)
    assert np.array_equal(codes[rows, cols], new)
    assert np.all(old != new)
    untouched = np.ones_like(codes, dtype=bool)
    untouched[rows, cols] = False
    assert np.array_equal(codes[untouched], before[untouched])


def test_letters_stay_in_alphabet():
    codes = _fresh(15)
    kernels.mutate_sites(codes, np.full(codes.shape[1], 0.5), rng.stream(15, 2))
    assert codes.max() <= 3


@pytest.mark.parametrize("p", [0.002, 0.05, 0.3])
def test_empirical_site_rate(p):
    # n*L = 2e5 sites: observed rate within 4 sigma of p
    gen = rng.stream(16, 1)
    codes = gen.integers(0, 4, size=(2000, 100), dtype=np.uint8)
    rows, _, _, _ = kernels.mutate_sites(
        codes, np.full(100, p), rng.stream(16, 2, int(p * 1e6))
    )
    n_sites = codes.size
    sigma = (p * (1 - p) / n_sites) ** 0.5
    assert abs(rows.size / n_sites - p) < 4 * sigma


def test_replacement_letters_uniform_over_other_three():
    gen = rng.stream(17, 1)
    codes = np.zeros((3000, 40), dtype=np.uint8)  # all letter 0
    _, _, old, new = kernels.mutate_sites(
        codes, np.full(40, 0.5), rng.stream(17, 2)
    )
    counts = np.bincount(new, minlength=4)
    assert counts[0] == 0
    total = counts.sum()
    for letter in (1, 2, 3):
        frac = counts[letter] / total
        sigma = (1 / 3 * 2 / 3 / total) ** 0.5
        assert abs(frac - 1 / 3) < 4 * sigma


def test_per_site_probabilities_respected():
    # half the columns silent, half certain: flips land exactly where allowed
    prob = np.zeros(60)
    prob[30:] = 1.0
    gen = rng.stream(18, 1)
    codes = gen.integers(0, 4, size=(50, 60), dtype=np.uint8)
    rows, cols, _, _ = kernels.mutate_sites(codes, prob, rng.stream(18, 2))
    assert cols.min() >= 30
    assert rows.size == 50 * 30


def test_shape_validation():
    codes = _fresh(19)
    with pytest.raises(ValueError):
        kernels.mutate_sites(codes, np.full(7, 0.1), rng.stream(19, 2))
    with pytest.raises(ValueError):
        kernels.mutate_sites(codes[0], np.full(120, 0.1), rng.stream(19, 2))

