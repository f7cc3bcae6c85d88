import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergolab.substitution import (
    RUDIN_SHAPIRO,
    THREE_LETTER,
    _POWER_LETTERS,
    NoConvergence,
    NotFixedPointCapable,
    NotPrimitive,
    PrefixTooShort,
    RigidityConstant,
    Substitution,
    block_frequencies,
    composition_matrix,
    empirical_correlation,
    fixed_point_prefix,
    is_primitive,
    pair_substitution,
    perron,
    prefix_block_frequencies,
    prefix_correlation,
    rigidity_constant,
    str_to_word,
    word_to_str,
)

FIBONACCI = Substitution(2, ((0, 1), (0,)), name="fibonacci")


# -- construction and validation ---------------------------------------------


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        Substitution(2, ((0, 1),))  # missing image
    with pytest.raises(ValueError):
        Substitution(2, ((0, 2), (1,)))  # symbol out of range
    with pytest.raises(ValueError):
        Substitution(1, ((),))  # empty image
    with pytest.raises(ValueError, match=r"line 2: .*'1 -> 1x'"):
        Substitution.from_lines(["0 -> 01", "1 -> 1x"])


def test_types_keep_their_fields_and_keywords():
    sub = Substitution(2, [[0, 1], [0]], name="fibonacci")
    assert (sub.alphabet_size, sub.images, sub.name) == (2, FIBONACCI.images, "fibonacci")
    with pytest.raises(ValueError, match="^letter '0' is not an integer$"):
        Substitution(2, [[0, 1], "0"])  # an image is letters; text goes through from_lines
    assert Substitution(alphabet_size=2, images=FIBONACCI.images).name is None
    assert RigidityConstant._fields == ("r", "rho", "alpha", "witness_letter")
    assert rigidity_constant(RUDIN_SHAPIRO).witness_letter == rigidity_constant(RUDIN_SHAPIRO)[3]


def test_from_lines_gap_check_is_not_sized_by_the_largest_letter():
    # a list of 0..k-1 took 53 MiB at letter 10**6; the smaller letter goes
    # first, so a check that still builds one fails before it meets 10**9
    for letter in (10**6, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^letters must be 0..k-1 with no gaps$"):
                Substitution.from_lines(["0 -> 0 1", f"{letter} -> 0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, letter


def test_from_lines_digit_and_index_formats():
    sub = Substitution.from_lines(["0 -> 02", "1 -> 32", "2 -> 01", "3 -> 31"])
    assert sub.images == RUDIN_SHAPIRO.images
    sub2 = Substitution.from_lines(["0 -> 0 1", "1 -> 0"])
    assert sub2.images == FIBONACCI.images
    assert Substitution.from_lines(["0 -> 0,1", "1 -> 0"]).images == FIBONACCI.images


def test_from_lines_reads_a_one_letter_word_above_nine_on_twelve_letters():
    # each image is read once the alphabet size is known, so `10` is the
    # letter 10 on 12 letters, not the two digits 1, 0
    lines = [f"{i} -> {i} {(i + 1) % 12}" for i in range(12)]
    lines[9] = "9 -> 10"
    sub = Substitution.from_lines(lines)
    assert sub.alphabet_size == 12 and sub.images[9] == (10,)
    assert sub.images[11] == (11, 0)


@settings(max_examples=300)
@given(st.integers(1, 30).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1,
                                                                              max_size=12))))
def test_str_to_word_inverts_word_to_str(data):
    k, w = data
    assert str_to_word(word_to_str(w, k), k) == tuple(w)


@pytest.mark.parametrize("text, k, word", [
    ("021", 4, (0, 2, 1)), ("0,2,1", 4, (0, 2, 1)), ("0 2\t1", 4, (0, 2, 1)), ("10", 10, (1, 0)),
    ("10", 11, (10,)), ("1 0", 11, (1, 0)), ("1,0", 11, (1, 0)), (" 3, 11 ", 12, (3, 11)), ("", 4, ()),
])
def test_str_to_word_separators(text, k, word):
    assert str_to_word(text, k) == word


@pytest.mark.parametrize("text", ["0x", "0,,1", "0,1,", "0 1,2", "1.5"])
def test_str_to_word_rejects_a_token_that_is_no_integer(text):
    with pytest.raises(ValueError):
        str_to_word(text, 12)


def test_fixed_point_capability():
    assert RUDIN_SHAPIRO.is_fixed_point_capable
    assert Substitution(1, ((0, 0),)).is_fixed_point_capable
    assert not Substitution(1, ((0,),)).is_fixed_point_capable  # no growth
    assert not Substitution(2, ((1, 0), (0,))).is_fixed_point_capable  # wrong prefix


# -- composition matrix -------------------------------------------------------


def test_composition_matrix_rudin_shapiro():
    M = composition_matrix(RUDIN_SHAPIRO)
    expected_columns = [(1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1)]
    for j, col in enumerate(expected_columns):
        assert tuple(row[j] for row in M) == col


def test_composition_matrix_three_letter():
    M = composition_matrix(THREE_LETTER)
    assert list(zip(*M)) == [(2, 1, 0), (0, 1, 2), (1, 1, 1)]


def test_composition_matrix_identity_like():
    assert composition_matrix(Substitution(1, ((0,),))) == [[1]]


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=1, max_size=5),
            min_size=k, max_size=k,
        ),
    )
))
def test_column_sums_equal_image_lengths(data):
    k, images = data
    sub = Substitution(k, tuple(tuple(w) for w in images))
    M = composition_matrix(sub)
    assert [sum(col) for col in zip(*M)] == [len(w) for w in sub.images]


# -- primitivity ---------------------------------------------------------------


def test_primitivity_cases():
    assert is_primitive(RUDIN_SHAPIRO)
    assert is_primitive(THREE_LETTER)
    assert is_primitive(FIBONACCI)  # M^2 entrywise positive
    assert not is_primitive(Substitution(2, ((0, 0), (1, 1))))  # letters never mix


def primitivity_oracle(M) -> bool:
    """Some power M^n with n up to the Wielandt bound is positive (test oracle)."""
    k = len(M)
    power = [[M[i][j] > 0 for j in range(k)] for i in range(k)]
    for _ in range(k * k - 2 * k + 2):
        if all(map(all, power)):
            return True
        power = [[any(power[i][t] and M[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    return all(map(all, power))


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                                                    min_size=k, max_size=k)))
def test_primitivity_by_squaring_matches_power_oracle(M):
    from ergolab.substitution import _matrix_is_primitive

    assert _matrix_is_primitive(M) == primitivity_oracle(M)


def test_primitivity_on_257_letters():
    # every letter maps to all the others: M = J - I, whose square is
    # positive; 256 paths from a letter back to itself must not count as 0
    k = 257
    sub = Substitution(k, tuple(tuple(b for b in range(k) if b != a) for a in range(k)))
    assert is_primitive(sub)


# -- Perron data ---------------------------------------------------------------


def test_perron_rudin_shapiro_exact():
    data = perron(composition_matrix(RUDIN_SHAPIRO))
    assert data.theta == 2.0  # constant length forces the exact value
    assert np.allclose(data.letter_freq, 0.25, atol=1e-12)
    assert data.residual <= 1e-12 * 2


def test_perron_three_letter_exact_theta():
    data = perron(composition_matrix(THREE_LETTER))
    assert data.theta == 3.0


def test_perron_fibonacci_golden_ratio():
    data = perron(composition_matrix(FIBONACCI), tol=1e-13)
    assert abs(data.theta - (1 + np.sqrt(5)) / 2) < 1e-10


def test_perron_matches_numpy_eig_oracle():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER, FIBONACCI):
        M = composition_matrix(sub)
        data = perron(M)
        eigvals, eigvecs = np.linalg.eig(np.array(M, dtype=float))
        i = np.argmax(np.abs(eigvals))
        assert abs(data.theta - eigvals[i].real) < 1e-9
        v = np.abs(eigvecs[:, i].real)
        assert np.allclose(data.letter_freq, v / v.sum(), atol=1e-9)


def test_letter_limits_match_iterative_oracle():
    # v(a) should be the limit of M^n e_a / theta^n
    for sub in (RUDIN_SHAPIRO, THREE_LETTER, FIBONACCI):
        M = np.array(composition_matrix(sub), dtype=float)
        data = perron(composition_matrix(sub))
        n = 40
        P = np.linalg.matrix_power(M, n) / data.theta**n
        for a, v in enumerate(np.outer(data.left_vec, data.letter_freq)):
            assert np.allclose(P[:, a], v, atol=1e-6), (sub.name, a)


@st.composite
def primitive_substitutions(draw):
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        lengths = [draw(st.integers(2, 4))] * k
    else:
        lengths = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    images = tuple(
        tuple(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))) for n in lengths
    )
    sub = Substitution(k, images)
    assume(is_primitive(sub))
    return sub


@settings(max_examples=60)
@given(primitive_substitutions())
def test_perron_residual_and_limits_on_random_substitutions(sub):
    tol = 1e-12
    M = np.array(composition_matrix(sub), dtype=float)
    data = perron(composition_matrix(sub), tol=tol)
    right = np.array(data.letter_freq)
    residual = np.abs(M @ right - data.theta * right).max()
    assert residual <= tol * max(1.0, data.theta)
    # M^n e_a / theta^n; |lambda_2| / theta reaches ~0.985 in this family,
    # so n = 2^14 leaves a truncation error far below the tolerance
    P = np.linalg.matrix_power(M / data.theta, 2**14)
    for a, v in enumerate(np.outer(data.left_vec, data.letter_freq)):
        assert np.allclose(P[:, a], v, atol=1e-6), (sub.images, a)
        assert v.min() > 0, (sub.images, a)  # so ||v||_1 is v.sum() in the reports


@st.composite
def small_primitive_substitutions(draw):
    """Primitive substitutions on 1-6 letters whose images have one length or lengths 1-4."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 4))] * k
    else:
        lengths = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    sub = Substitution(k, [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) for n in lengths])
    assume(is_primitive(sub))
    return sub


@settings(max_examples=200)
@given(small_primitive_substitutions())
def test_perron_matches_numpy_eig_on_random_substitutions(sub):
    A = np.array(composition_matrix(sub), dtype=float)
    data = perron(composition_matrix(sub))
    eigvals, eigvecs = np.linalg.eig(A)
    i = np.argmax(np.abs(eigvals))
    right = eigvecs[:, i].real / eigvecs[:, i].real.sum()
    eigvals_t, eigvecs_t = np.linalg.eig(A.T)
    left = eigvecs_t[:, np.argmax(np.abs(eigvals_t))].real
    left = left / (left @ right)
    assert abs(data.theta - eigvals[i].real) <= 1e-12 * data.theta, sub.images
    assert np.abs(np.array(data.letter_freq) - right).max() <= 1e-12, sub.images
    assert np.abs(np.array(data.left_vec) - left).max() <= 1e-11 * left.max(), sub.images


def test_perron_takes_the_null_vector_where_a_shift_lands_on_theta(monkeypatch):
    # lengths 2, 4, 2, 4 and theta = 3 exactly: a Newton shift lands on 3, where
    # 3I - M is singular, so the right vector is the null vector, (2, 3, 2, 1) / 8
    import ergolab.substitution as substitution

    calls = []
    null_vector = substitution._null_vector
    monkeypatch.setattr(substitution, "_null_vector", lambda *args: calls.append(args[1]) or null_vector(*args))
    data = perron(composition_matrix(Substitution.from_lines(["0 -> 01", "1 -> 0211", "2 -> 23", "3 -> 3201"])))
    assert calls == [3.0, 3.0]  # the right vector, then the left one
    assert data.theta == 3.0 and data.residual == 0.0
    assert data.letter_freq == (0.25, 0.375, 0.25, 0.125)
    assert data.left_vec == pytest.approx([2 / 3, 4 / 3, 2 / 3, 4 / 3], rel=1e-15, abs=0)


def test_perron_vector_scales_from_either_side():
    # a tuple's own left product would repeat the vector, or refuse a float factor
    v = perron(composition_matrix(RUDIN_SHAPIRO)).letter_freq
    assert 2 * v == v * 2 == (0.5, 0.5, 0.5, 0.5)
    assert 2.0 * v == v * 2.0 == (0.5, 0.5, 0.5, 0.5)
    assert type(2.0 * v) is type(v)


def test_perron_constant_length_limit_norms_are_one():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        data = perron(composition_matrix(sub))
        for v in np.outer(data.left_vec, data.letter_freq):
            assert abs(np.abs(v).sum() - 1.0) < 1e-10


@st.composite
def constant_length_substitutions(draw):
    """Primitive substitutions on 1-5 letters whose images all have one length q in 2..4."""
    k, q = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    word = st.lists(st.integers(0, k - 1), min_size=q, max_size=q)
    sub = Substitution(k, [draw(word) for _ in range(k)])
    assume(is_primitive(sub))
    return sub


@settings(max_examples=40)
@given(constant_length_substitutions())
def test_perron_constant_length_left_vector_is_all_ones(sub):
    # 1^T M = q 1^T, so the left vector is all ones, not an eigen-solve's approximation
    perron_data = perron(composition_matrix(sub))
    assert list(perron_data.left_vec) == [1.0] * sub.alphabet_size
    assert perron_data.theta == len(sub.images[0])


@settings(max_examples=40, deadline=None)
@given(constant_length_substitutions())
def test_analyze_constant_length_limit_norms_and_rho_are_exactly_one(sub):
    # ||v(a)||_1 is left[a], which is exactly 1 here, so alpha = r to the bit
    from ergolab import cli

    report = cli.report_subst_analyze(sub, 1e-12, 0)
    rigidity = report["rigidity_constant"]
    assert report["letter_limit_norms"] == [1.0] * sub.alphabet_size
    assert rigidity["rho"] == 1.0 and rigidity["alpha"] == rigidity["r"]


def test_analyze_rho_is_one_where_a_row_sum_of_the_limit_vector_rounds_below_it():
    # summing left[a] * right over the letters gave 0.9999999999999999 for both
    # norms, so rho and alpha came out one ulp low (alpha 0.5999999999999999)
    from ergolab import cli

    report = cli.report_subst_analyze(Substitution.from_lines(["0 -> 0 0 0 1", "1 -> 0 0 0 0"]), 1e-12, 0)
    assert report["letter_limit_norms"] == [1.0, 1.0]
    assert report["rigidity_constant"] == {"r": 0.6, "rho": 1.0, "alpha": 0.6, "witness_letter": 0}


def test_perron_rejects_nonprimitive():
    with pytest.raises(NotPrimitive):
        perron(composition_matrix(Substitution(2, ((0, 0), (1, 1)))))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
def test_perron_rejects_a_tol_that_gates_nothing(tol):
    # residual > nan is False, so a NaN tol would accept any eigenvector
    with pytest.raises(ValueError, match="tol"):
        perron(composition_matrix(RUDIN_SHAPIRO), tol=tol)


def test_perron_positive_vectors():
    data = perron(composition_matrix(THREE_LETTER))
    assert min(data.letter_freq) > 0
    assert min(data.left_vec) > 0
    assert abs(sum(data.letter_freq) - 1.0) < 1e-12


# -- fixed point ----------------------------------------------------------------


def test_fixed_point_prefix_frozen_values():
    assert word_to_str(fixed_point_prefix(RUDIN_SHAPIRO, 8)) == "02010232"
    assert word_to_str(fixed_point_prefix(THREE_LETTER, 9)) == "001001122"
    assert word_to_str(fixed_point_prefix(RUDIN_SHAPIRO, 1)) == "0"


def test_fixed_point_prefix_nesting():
    long = fixed_point_prefix(RUDIN_SHAPIRO, 512)
    for n in (1, 7, 100, 511):
        assert fixed_point_prefix(RUDIN_SHAPIRO, n) == long[:n]


def prefix_oracle(sub: Substitution, length: int) -> list[int]:
    """Whole generations of the fixed point, cut at `length` (test oracle)."""
    w = [0]
    while len(w) < length:
        w = [s for t in w for s in sub.images[t]]
    return w[:length]


@st.composite
def fixed_point_substitutions(draw):
    k = draw(st.integers(1, 5))
    head = (0,) + tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)))
    rest = tuple(
        tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))) for _ in range(k - 1)
    )
    return Substitution(k, (head,) + rest)


@settings(max_examples=80)
@given(fixed_point_substitutions(), st.sampled_from([1, 2, 7, 100, 4096]) | st.integers(1, 3000))
def test_fixed_point_prefix_matches_oracle(sub, length):
    got = fixed_point_prefix(sub, length)
    assert got.format == "B"
    assert got.tolist() == prefix_oracle(sub, length)


def wide_substitution() -> Substitution:
    """Images of 1 to 3 letters over 300 letters, so letters above 255 need 2-byte items."""
    rng = random.Random(300)
    return Substitution(300, [(0, 299, 1)] + [tuple(rng.choices(range(300), k=rng.randint(1, 3))) for _ in range(299)])


@pytest.mark.parametrize("sub, code", [
    (RUDIN_SHAPIRO, "B"), (THREE_LETTER, "B"), (FIBONACCI, "B"), (wide_substitution(), "H"),
    # the largest letter is the last one: 255 fits a byte, 256 does not
    (Substitution(256, [(0, 255)] + [(0,)] * 255), "B"), (Substitution(257, [(0, 256)] + [(0,)] * 256), "H"),
])
def test_fixed_point_prefix_is_a_read_only_view_of_the_built_word(sub, code):
    got = fixed_point_prefix(sub, 5000)
    assert got.format == code and got.readonly and isinstance(got.obj, bytes)
    assert got.tolist() == prefix_oracle(sub, 5000)
    with pytest.raises(TypeError, match="read-only"):
        got[0] = 1
    # a letter no item holds counts 0
    for letter in (-1, 256**got.itemsize, 2**70):
        assert prefix_correlation(got, [letter], 0) == 0.0


def numpy_scan(prefix, block, shift: int) -> float:
    """`prefix_correlation` by one boolean array per block offset (test oracle)."""
    prefix = np.asarray(prefix, dtype=np.int64)
    n, L = len(prefix), len(block)
    occ = np.ones(n - L + 1, dtype=bool)
    for off, sym in enumerate(block):
        occ &= prefix[off : n - L + 1 + off] == sym
    limit = n - shift - L
    return float(np.count_nonzero(occ[:limit] & occ[shift : shift + limit])) / limit


@settings(max_examples=150)
@given(st.sampled_from(["three-letter", "wide"]), st.data())
def test_prefix_correlation_matches_a_numpy_scan(system, data):
    # one-byte items, and two-byte items on 300 letters; blocks of up to 9
    # letters take two groups of byte flags, and a letter no item holds counts 0
    sub = {"three-letter": THREE_LETTER, "wide": wide_substitution()}[system]
    prefix = fixed_point_prefix(sub, 3000)
    L, start = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 2000))
    block = prefix[start : start + L].tolist()
    if data.draw(st.booleans()):
        block[data.draw(st.integers(0, L - 1))] = data.draw(st.sampled_from([2, 299, 300, 256, 2**16, -1]))
    shift = data.draw(st.integers(0, 3000 - L - 1))
    got = prefix_correlation(prefix, block, shift)
    assert got == numpy_scan(prefix, block, shift)
    if not all(0 <= s < 256**prefix.itemsize for s in block):
        assert got == 0.0


@st.composite
def substitutions_with_length_one_images(draw):
    k = draw(st.integers(2, 5))
    head = (0,) + tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)))
    rest = [tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))) for _ in range(k - 1)]
    rest[draw(st.integers(0, k - 2))] = (draw(st.integers(0, k - 1)),)
    return Substitution(k, (head,) + tuple(rest))


@settings(max_examples=60, deadline=None)
@given(fixed_point_substitutions() | substitutions_with_length_one_images(), st.data())
def test_fixed_point_prefix_matches_oracle_at_generation_lengths(sub, data):
    # |sigma^j(0)| - 1, |sigma^j(0)| and |sigma^j(0)| + 1 sit on either side of
    # the ends of the sigma^j table and of the growth passes
    M = np.array(composition_matrix(sub))
    counts, generations = M[:, 0], [1]  # letter counts of sigma^j(0)
    while generations[-1] < 1500:
        generations.append(int(counts.sum()))
        counts = M @ counts
    n = data.draw(st.sampled_from(generations))
    want = prefix_oracle(sub, n + 1)
    for length in (n - 1, n, n + 1):
        if length >= 1:
            assert fixed_point_prefix(sub, length).tolist() == want[:length]


def slow_closed_forms(length: int) -> list[tuple[Substitution, list[int]]]:
    """Fixed points whose length grows linearly or quadratically in the
    generation, where `prefix_oracle` is quadratic in `length` (test oracle)."""
    quadratic, i = [0], 0
    while len(quadratic) < length:
        quadratic += [1] + [2] * i  # 0 1 12 122 1222 ...
        i += 1
    return [
        (Substitution(3, ((0, 1, 2), (1,), (2,))), ([0] + [1, 2] * length)[:length]),  # 0 12 12 12 ...
        (Substitution(3, ((0, 1), (1, 2), (2,))), quadratic[:length]),
    ]


def test_fixed_point_prefix_grows_slow_substitutions():
    n = 65_536
    for sub, want in slow_closed_forms(n):
        for length in (1, 2, 3, _POWER_LETTERS - 1, _POWER_LETTERS, _POWER_LETTERS + 1, 8192, n):
            assert fixed_point_prefix(sub, length).tolist() == want[:length]


@pytest.mark.parametrize("sub", [RUDIN_SHAPIRO, THREE_LETTER, FIBONACCI, wide_substitution()])
def test_fixed_point_prefix_at_the_table_bound(sub):
    want = prefix_oracle(sub, 8192)
    assert max(want) == sub.alphabet_size - 1
    for length in (1, _POWER_LETTERS - 1, _POWER_LETTERS, _POWER_LETTERS + 1, 8192):
        assert fixed_point_prefix(sub, length).tolist() == want[:length]


@pytest.mark.parametrize("sub, head", [
    (Substitution(2, ((0, 1), (1,) * 4000)), [0]),  # one more power would hold 16M letters
    # the letters after 0 1 2 1 read image(2) 1 image(2)^2000, each 2 expanding to 2,000 letters
    (Substitution(3, ((0, 1, 2), (1,), (2,) * 2000)), [0, 1, 2, 1] + [2] * 2000 + [1]),
])
def test_fixed_point_prefix_memory_is_bounded_by_table_and_length(sub, head):
    n = 65_536
    tracemalloc.start()
    try:
        prefix = fixed_point_prefix(sub, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prefix.tolist() == head + [sub.alphabet_size - 1] * (n - len(head))
    assert peak < 4 * n * 8


def capability_oracle(sub: Substitution) -> bool:
    """image(0) starts with 0 and |image^n(0)| grows for n = 1..5 (test oracle)."""
    if sub.images[0][0] != 0:
        return False
    w = [0]
    for _ in range(5):
        grown = [s for t in w for s in sub.images[t]]
        if len(grown) <= len(w):
            return False
        w = grown
    return True


@st.composite
def any_substitutions(draw):
    k = draw(st.integers(1, 4))
    images = [draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4)) for _ in range(k)]
    if draw(st.booleans()):
        images[0][0] = 0  # the capable side needs image(0) to start with 0
    return Substitution(k, tuple(tuple(w) for w in images))


@settings(max_examples=200)
@given(any_substitutions())
def test_fixed_point_capability_matches_growth_oracle(sub):
    assert sub.is_fixed_point_capable == capability_oracle(sub)


def test_fixed_point_prefix_requires_capability():
    with pytest.raises(NotFixedPointCapable):
        fixed_point_prefix(Substitution(2, ((1, 0), (0, 1))), 4)


# -- pair substitution -----------------------------------------------------------


def test_pair_substitution_rudin_shapiro_block():
    pair = pair_substitution(RUDIN_SHAPIRO)
    assert pair[(0, 2)] == ((0, 2), (2, 0))
    # image length equals |image of the first letter|
    for (a, _), img in pair.items():
        assert len(img) == len(RUDIN_SHAPIRO.images[a])
    # every image block is admissible
    admissible = set(pair)
    for img in pair.values():
        assert set(img) <= admissible


def test_pair_substitution_three_letter_block():
    pair = pair_substitution(THREE_LETTER)
    assert pair[(0, 0)] == ((0, 0), (0, 1), (1, 0))


def test_pair_substitution_trivial():
    pair = pair_substitution(Substitution(1, ((0, 0),)))
    assert tuple(pair) == ((0, 0),)
    assert pair[(0, 0)] == ((0, 0), (0, 0))


def primitive_fixed_point_substitutions():
    return fixed_point_substitutions().filter(is_primitive)


@settings(max_examples=40, deadline=None)
@given(primitive_fixed_point_substitutions(), st.sampled_from([3, 4, 1000]))
def test_analyze_empirical_check_rows_equal_prefix_correlation(sub, prefix_len):
    from ergolab import cli

    report = cli.report_subst_analyze(sub, 1e-12, prefix_len)
    freqs = block_frequencies(sub)
    prefix = fixed_point_prefix(sub, prefix_len)
    rows = report["empirical_check"]["blocks"]
    assert list(rows) == [word_to_str(b, sub.alphabet_size) for b in freqs]
    for b, f in freqs.items():
        emp = prefix_correlation(prefix, b, 0)
        assert rows[word_to_str(b, sub.alphabet_size)] == {"empirical": emp, "eigenvector": f,
                                                           "difference": abs(emp - f)}


def test_pair_blocks_match_long_prefix_scan():
    # closure finds exactly the blocks occurring in the fixed point
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        prefix = fixed_point_prefix(sub, 2**14)
        seen = {(int(a), int(b)) for a, b in zip(prefix[:-1], prefix[1:])}
        assert seen == set(pair_substitution(sub))


def pair_closure_oracle(sub: Substitution, seed_len: int = 65) -> dict:
    """The 2-blocks of a fixed-point prefix closed under the block-image map
    (test oracle)."""
    w = prefix_oracle(sub, seed_len)
    images: dict = {}
    frontier = list(zip(w, w[1:]))
    while frontier:
        blk = frontier.pop()
        if blk not in images:
            ab = sub.images[blk[0]] + sub.images[blk[1]]
            images[blk] = tuple(zip(ab, ab[1:]))[: len(sub.images[blk[0]])]
            frontier.extend(images[blk])
    return images


@settings(max_examples=80)
@given(fixed_point_substitutions())
def test_pair_substitution_matches_prefix_closure_oracle(sub):
    assume(is_primitive(sub))
    pair = pair_substitution(sub)
    want = pair_closure_oracle(sub)
    assert tuple(pair) == tuple(sorted(want))
    assert pair == want
    # a prefix scan can miss a rare block, so only containment is asserted
    prefix = prefix_oracle(sub, 4096)
    assert set(zip(prefix, prefix[1:])) <= set(pair)


# -- block frequencies -------------------------------------------------------------


def test_block_frequencies_sum_to_one():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        freqs = block_frequencies(sub)
        assert abs(sum(freqs.values()) - 1.0) < 1e-9
        assert min(freqs.values()) > 0


def test_block_frequencies_marginals():
    tol = 10 * 1e-12
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        freqs = block_frequencies(sub, tol=1e-12)
        letter = perron(composition_matrix(sub)).letter_freq
        for a in range(sub.alphabet_size):
            first = sum(f for (x, _), f in freqs.items() if x == a)
            second = sum(f for (_, y), f in freqs.items() if y == a)
            assert abs(first - letter[a]) < tol
            assert abs(second - letter[a]) < tol


def test_block_frequencies_trivial():
    assert block_frequencies(Substitution(1, ((0, 0),))) == {(0, 0): 1.0}


def test_block_frequencies_without_a_fixed_point_at_zero():
    # 0 -> 10, 1 -> 0 is primitive with no fixed point starting at 0; its
    # 2-block frequencies are 1/phi^3, 1/phi^2, 1/phi^2
    phi = (1 + 5**0.5) / 2
    sub = Substitution(2, ((1, 0), (0,)))
    assert not sub.is_fixed_point_capable
    freqs = block_frequencies(sub)
    assert list(freqs) == [(0, 0), (0, 1), (1, 0)]
    assert list(freqs.values()) == pytest.approx([phi**-3, phi**-2, phi**-2], abs=1e-12)
    # the reversed images have a fixed point at 0: the same numbers, blocks reversed
    assert block_frequencies(Substitution(2, ((0, 1), (0,)))) == pytest.approx(
        {(b, a): f for (a, b), f in freqs.items()}, abs=1e-12)


@st.composite
def any_primitive_substitutions(draw):
    k = draw(st.integers(2, 5))
    images = tuple(tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))) for _ in range(k))
    sub = Substitution(k, images)
    assume(is_primitive(sub))
    return sub


def pair_perron_oracle(pair) -> np.ndarray:
    """The l1-normalized Perron vector of the composition matrix M2 of the
    induced substitution on blocks, in the order of `pair`."""
    index = {b: i for i, b in enumerate(pair)}
    M2 = np.zeros((len(pair), len(pair)))
    for j, img in enumerate(pair.values()):
        for b in img:
            M2[index[b], j] += 1
    eigvals, eigvecs = np.linalg.eig(M2)
    v = eigvecs[:, np.argmax(np.abs(eigvals))].real
    return v / v.sum()


@settings(max_examples=80, deadline=None)
@given(st.one_of(primitive_substitutions(), any_primitive_substitutions()))
def test_block_frequencies_are_the_perron_vector_of_the_pair_substitution(sub):
    try:
        freqs = block_frequencies(sub)
    except NoConvergence:
        assume(False)
    pair = pair_substitution(sub)
    assert list(freqs) == list(pair)
    assert np.abs(np.array(list(freqs.values())) - pair_perron_oracle(pair)).max() <= 1e-14, sub.images


@settings(max_examples=80, deadline=None)
@given(any_primitive_substitutions())
def test_reversed_images_reverse_the_block_frequencies(sub):
    # reversing every image reverses every word of the language, so block
    # ab of the reversed system has the frequency of ba; either side is
    # often not fixed-point capable
    rev = Substitution(sub.alphabet_size, tuple(w[::-1] for w in sub.images))
    try:
        freqs, rev_freqs = block_frequencies(sub), block_frequencies(rev)
    except NoConvergence:
        assume(False)
    assert sorted(rev_freqs) == sorted((b, a) for a, b in freqs)
    for (a, b), f in freqs.items():
        assert abs(rev_freqs[b, a] - f) <= 1e-12, (sub.images, (a, b))


def exact_block_frequencies(sub: Substitution, pair, data) -> list[Fraction]:
    """Fraction elimination of (theta I - B) v = A f, with theta and f read
    exactly from their floats, then v / sum(v), in the order of `pair`."""
    index = {b: i for i, b in enumerate(pair)}
    n = len(pair)
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]  # [theta I - B | A f]
    for i in range(n):
        rows[i][i] += Fraction(data.theta)
    for j, img in enumerate(pair.values()):
        rows[index[img[-1]]][j] -= 1
    letters = sorted({a for blk in pair for a in blk})
    for c, f in zip(letters, data.letter_freq, strict=True):
        for blk in zip(sub.images[c], sub.images[c][1:]):
            rows[index[blk]][n] += Fraction(f)
    for col in range(n):
        p = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[p] = rows[p], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                m = rows[r][col] / rows[col][col]
                rows[r] = [x - m * y for x, y in zip(rows[r], rows[col])]
    v = [rows[i][n] / rows[i][i] for i in range(n)]
    return [x / sum(v) for x in v]


@settings(max_examples=80, deadline=None)
@given(st.one_of(primitive_substitutions(), any_primitive_substitutions()))
# B's functional graph: Rudin-Shapiro has two 2-cycles and four tree blocks;
# 0 -> 012, 1 -> 01, 2 -> 0 a 2-cycle, a fixed block and two tree blocks
@example(RUDIN_SHAPIRO)
@example(Substitution(3, ((0, 1, 2), (0, 1), (0,))))
def test_block_frequencies_match_an_exact_fraction_solve(sub):
    # the largest error measured on 20,480 random primitive substitutions of
    # 2-5 letters (images of 1-4 letters) was 1.25e-16; the bound is twice that
    data, freqs, pair = perron(composition_matrix(sub)), block_frequencies(sub), pair_substitution(sub)
    exact = exact_block_frequencies(sub, pair, data)
    assert max(abs(Fraction(f) - e) for f, e in zip(freqs.values(), exact, strict=True)) <= 2.5e-16, sub.images


@settings(max_examples=40, deadline=None)
@given(st.one_of(primitive_substitutions(), any_primitive_substitutions()))
def test_analyze_marginals_and_limit_norms_equal_their_per_letter_sums(sub):
    # bit for bit: the marginals are per-letter sums of the block frequencies, and the
    # limit norms ||v(a)||_1 = sum_b left[a] right[b] = left[a] are perron's left vector
    from ergolab import cli

    report = cli.report_subst_analyze(sub, 1e-12, 0)
    data, freqs = perron(composition_matrix(sub)), block_frequencies(sub)
    assert report["marginal_check"] == {
        str(a): sum(f for (x, _), f in freqs.items() if x == a) for a in range(sub.alphabet_size)}
    assert report["letter_limit_norms"] == list(data.left_vec)


def dense_block_substitution(n: int) -> Substitution:
    """0 -> 0 1 and i -> (i + 1) mod n, 7i mod n: 5,078 blocks at n = 100."""
    return Substitution(n, [(0, 1)] + [((i + 1) % n, 7 * i % n) for i in range(1, n)])


def test_analyze_memory_is_linear_in_the_blocks():
    from ergolab import cli

    sub = dense_block_substitution(100)
    tracemalloc.start()
    try:
        report = cli.report_subst_analyze(sub, 1e-12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(report["block_frequencies"])
    assert n == 5078
    assert peak < n * n * 8 / 20  # a dense (theta I - B) would take 206 MB


def test_block_frequencies_match_eig_oracle():
    pair = pair_substitution(THREE_LETTER)
    v = pair_perron_oracle(pair)
    freqs = block_frequencies(THREE_LETTER)
    for blk, expected in zip(pair, v):
        assert abs(freqs[blk] - expected) < 1e-9


# -- rigidity constant ----------------------------------------------------------


def test_rigidity_constant_length_rho_is_one():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        rig = rigidity_constant(sub)
        assert abs(rig.rho - 1.0) < 1e-10
        assert rig.alpha == rig.r * rig.rho
        assert 0.0 <= rig.alpha <= 1.0


def test_rigidity_rudin_shapiro_no_repeated_blocks():
    # the fixed point has no (aa) blocks, so r = 0 and the witness is letter 0
    rig = rigidity_constant(RUDIN_SHAPIRO)
    assert rig.r == 0.0
    assert rig.witness_letter == 0


def test_rigidity_three_letter_witness():
    rig = rigidity_constant(THREE_LETTER)
    freqs = block_frequencies(THREE_LETTER)
    assert rig.r == max(freqs.get((a, a), 0.0) for a in range(3))
    assert rig.alpha == pytest.approx(rig.r, abs=1e-10)


@pytest.mark.parametrize("images, rho", [
    (((0, 0, 1, 1), (0, 1, 1, 0)), 1.0),  # 00 and 11 both 1/4
    (((0, 0, 1, 1), (0, 1)), 4 / 3),  # 00 and 11 both 1/6; letter 1 has rho 2/3
])
def test_rigidity_tied_blocks_take_the_smallest_letter(images, rho):
    # two routes to one frequency can differ in the last bits, so a float
    # argmax would let rounding pick the witness
    from ergolab import cli

    sub = Substitution(2, images)
    rig = rigidity_constant(sub)
    freqs = block_frequencies(sub)
    assert freqs[0, 0] == pytest.approx(freqs[1, 1], abs=1e-15)
    assert rig.witness_letter == 0 and rig.rho == pytest.approx(rho, abs=1e-12)
    assert cli.report_subst_analyze(sub, 1e-12, 0)["rigidity_constant"] == rig._asdict()


def test_rigidity_requires_primitive():
    with pytest.raises(NotPrimitive):
        rigidity_constant(Substitution(2, ((0, 0), (1, 1))))


# -- empirical correlation --------------------------------------------------------


def test_empirical_shift_zero_matches_eigenvector():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        freqs = block_frequencies(sub)
        for blk in list(freqs)[:4]:
            emp = empirical_correlation(sub, blk, 0, 2**16)
            assert abs(emp - freqs[blk]) < 5e-3


def test_empirical_rigidity_lower_bound_three_letter():
    # normalized correlation of the dominant (aa) cylinder at the shift
    # |image^6(0)| = 3^6 witnesses the alpha-rigidity inequality
    rig = rigidity_constant(THREE_LETTER)
    blk = (rig.witness_letter, rig.witness_letter)
    value = empirical_correlation(THREE_LETTER, blk, 3**6, 2**16)
    mass = empirical_correlation(THREE_LETTER, blk, 0, 2**16)
    assert value / mass >= rig.alpha - 0.05


def test_empirical_prefix_guard():
    with pytest.raises(PrefixTooShort):
        empirical_correlation(RUDIN_SHAPIRO, (0, 2), 100, 102)


def test_empirical_block_outside_alphabet():
    with pytest.raises(ValueError, match=r"block 9 has a letter outside 0\.\.3"):
        empirical_correlation(RUDIN_SHAPIRO, (9,), 1, 64)
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        empirical_correlation(RUDIN_SHAPIRO, (0, -1), 1, 64)


# -- non-primitive bases: perron decides -------------------------------------------

# letter 2 never meets 0 and 1, so M is not primitive, but the fixed point
# from 0 is Thue-Morse's and its 2-block matrix is primitive
THUE_MORSE_AND_TWO = Substitution(3, ((0, 1), (1, 0), (2, 2)))
# 0 occurs once in the fixed point 0111..., so M on the letters of its blocks is not primitive
ONE_ZERO = Substitution(2, ((0, 1), (1, 1)))


def test_pair_substitution_is_the_closure_on_a_non_primitive_base():
    assert pair_substitution(THUE_MORSE_AND_TWO) == pair_substitution(Substitution(2, ((0, 1), (1, 0))))
    assert pair_substitution(ONE_ZERO) == {(0, 1): ((0, 1), (1, 1)), (1, 1): ((1, 1), (1, 1))}
    # no fixed point at 0: the seed is (1, 1), the first block of the first two-letter image
    assert pair_substitution(Substitution(2, ((0,), (1, 1)))) == {(1, 1): ((1, 1), (1, 1))}


def test_block_frequencies_need_a_primitive_block_matrix_only():
    freqs = block_frequencies(THUE_MORSE_AND_TWO)
    assert list(freqs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(freqs.values()) == pytest.approx([1 / 6, 1 / 3, 1 / 3, 1 / 6], abs=1e-12)
    with pytest.raises(NotPrimitive, match="matrix has no entrywise-positive power"):
        block_frequencies(ONE_ZERO)


@pytest.mark.parametrize("sub", [THUE_MORSE_AND_TWO, ONE_ZERO])
def test_rigidity_and_analyze_reject_a_non_primitive_base(sub):
    from ergolab import cli

    with pytest.raises(NotPrimitive):
        rigidity_constant(sub)
    report = cli.report_subst_analyze(sub, 1e-12, 64)
    assert report["primitive"] is False and "block_frequencies" not in report


# -- 2-block counts without a prefix -------------------------------------------------


def prefix_block_scan(sub: Substitution, prefix_len: int) -> dict:
    """The 2-blocks (u[p], u[p+1]), p <= prefix_len - 3, of a built prefix,
    counted by one bincount, over prefix_len - 2 (test oracle)."""
    prefix, k = fixed_point_prefix(sub, prefix_len), sub.alphabet_size
    if prefix_len <= 2:
        raise PrefixTooShort(2)
    prefix = np.asarray(prefix, dtype=np.int64)
    counts = np.bincount(prefix[: prefix_len - 2] * k + prefix[1 : prefix_len - 1]).tolist()
    return {divmod(i, k): c / (prefix_len - 2) for i, c in enumerate(counts) if c}


def generation_lengths(sub: Substitution, limit: int) -> list[int]:
    """|sigma^j(0)| for j = 0, 1, ... up to the first one past `limit`."""
    lengths, counts = [1], [1] + [0] * (sub.alphabet_size - 1)  # letter counts of sigma^j(0)
    while lengths[-1] <= limit:
        grown = [0] * sub.alphabet_size
        for a, c in enumerate(counts):
            for s in sub.images[a]:
                grown[s] += c
        counts = grown
        lengths.append(sum(counts))
    return lengths


@settings(max_examples=100, deadline=None)
@given(fixed_point_substitutions() | substitutions_with_length_one_images(), st.data())
def test_prefix_block_frequencies_match_the_prefix_scan(sub, data):
    # the blocks lie in u[:prefix_len - 1], so around |sigma^j(0)| + 1 the
    # Dumont-Thomas digits of prefix_len - 1 gain a level
    n = data.draw(st.sampled_from(generation_lengths(sub, 3000)))
    for prefix_len in (n - 1, n, n + 1, n + 2):
        if prefix_len >= 3:
            assert prefix_block_frequencies(sub, prefix_len) == prefix_block_scan(sub, prefix_len)


@pytest.mark.parametrize("sub", [
    RUDIN_SHAPIRO, THREE_LETTER, FIBONACCI, wide_substitution(), THUE_MORSE_AND_TWO, ONE_ZERO,
    *(sub for sub, _ in slow_closed_forms(0)),
])
def test_prefix_block_frequencies_match_the_scan_on_fixed_systems(sub):
    # primitive, 300 letters, non-primitive, and fixed points growing linearly or quadratically
    lengths = generation_lengths(sub, 4096)
    for n in lengths[:4] + lengths[-3:]:
        for prefix_len in {3, 4, 5, 1000, 65_536, n - 1, n, n + 1, n + 2} - {0, 1, 2}:
            assert prefix_block_frequencies(sub, prefix_len) == prefix_block_scan(sub, prefix_len)


# -- input checks ------------------------------------------------------------------

NO_FIXED_POINT = Substitution(2, ((1, 0), (0,)), name="no-fixed-point-at-0")  # primitive; image(0) starts with 1



@pytest.mark.parametrize("call, error, message", [
    (lambda: Substitution(0, ()), ValueError, "alphabet_size must be positive"),
    (lambda: Substitution(2, ((0, 1),)), ValueError, "need exactly one image per letter"),
    (lambda: Substitution(1, ((),)), ValueError, "images must be nonempty"),
    (lambda: Substitution(2, ((0, 2), (1,))), ValueError, "image symbol out of alphabet range"),
    (lambda: Substitution.from_lines(["0 -> 01", "", "# note", "1 01"]), ValueError,
     r"line 4: bad substitution line '1 01'"),
    (lambda: Substitution.from_lines(["0 -> 01", "1 -> "]), ValueError, r"line 2: bad substitution line '1 -> '"),
    (lambda: Substitution.from_lines(["x -> 01"]), ValueError, r"line 1: bad substitution line 'x -> 01'"),
    (lambda: Substitution.from_lines(["0 -> 01", "0 -> 1"]), ValueError, "duplicate image for letter 0"),
    (lambda: Substitution.from_lines(["", "# only a comment"]), ValueError, "empty substitution definition"),
    (lambda: Substitution.from_lines(["0 -> 02", "2 -> 0"]), ValueError, "letters must be 0..k-1 with no gaps"),
    # the three-letter residual is exactly 0, Fibonacci's is not
    (lambda: perron(composition_matrix(FIBONACCI), tol=0), NoConvergence, r"Perron residual \S+ exceeds tol=0"),
    # M is checked before any arithmetic: its dominant eigenvector could divide by 0
    (lambda: perron([[1, 1], [1, -3]]), ValueError, r"entry \(1, 1\) = -3 is not a nonnegative integer"),
    (lambda: perron([[1, 1], [1, 0.5]]), ValueError, r"entry \(1, 1\) = 0\.5 is not a nonnegative integer"),
    (lambda: perron([[1, 1], [1]]), ValueError, "matrix must be square, row 1 has 1 entries for 2 rows"),
    (lambda: perron([]), ValueError, "matrix must have at least one row"),
    (lambda: fixed_point_prefix(RUDIN_SHAPIRO, 0), ValueError, "length must be positive"),
    # the 2-block count checks as the prefix it replaces: length, then the fixed point, then the span
    *(pytest.param(lambda n=n, sub=sub: prefix_block_frequencies(sub, n), error, message,
                   id=f"prefix_block_frequencies-{sub.name}-{n}")
      for sub, n, error, message in [
          (RUDIN_SHAPIRO, 0, ValueError, "length must be positive"),
          (NO_FIXED_POINT, 0, ValueError, "length must be positive"),
          (NO_FIXED_POINT, 1, NotFixedPointCapable, "image of 0 must start with 0 and grow"),
          (NO_FIXED_POINT, 2, NotFixedPointCapable, "image of 0 must start with 0 and grow"),
          (RUDIN_SHAPIRO, 1, PrefixTooShort, r"need prefix_len > shift \+ block length = 2"),
          (RUDIN_SHAPIRO, 2, PrefixTooShort, r"need prefix_len > shift \+ block length = 2"),
      ]),
    # a letter that is no integer is named, not truncated to 1 or 0
    (lambda: Substitution(2, ((0, 1.7), (1,))), ValueError, r"letter 1\.7 is not an integer"),
    (lambda: empirical_correlation(RUDIN_SHAPIRO, (0.9,), 3, 100), ValueError, r"letter 0\.9 is not an integer"),
    (lambda: prefix_correlation(memoryview(bytes(8)), (0, "1"), 1), ValueError, "letter '1' is not an integer"),
    # the block as separate letters, which read back, not as the digit strings 112 and 0-1
    (lambda: empirical_correlation(THREE_LETTER, (1, 12), 1, 64), ValueError, r"block 1 12 has a letter outside 0\.\.2"),
    (lambda: empirical_correlation(RUDIN_SHAPIRO, (0, -1), 1, 64), ValueError, r"block 0 -1 has a letter outside 0\.\.3"),
    (lambda: pair_substitution(Substitution(1, ((0,),))), NotFixedPointCapable,
     "pair substitution needs an image of two or more letters"),
    (lambda: prefix_correlation(memoryview(bytes(8)), (0,), -1), ValueError, "shift must be nonnegative"),
    # every position carries the empty word, so no count of it is a correlation
    (lambda: prefix_correlation(fixed_point_prefix(RUDIN_SHAPIRO, 100), (), 0), ValueError, "block must be nonempty"),
    # every count and length takes the integer rule, never left to fail deeper or be accepted
    (lambda: Substitution(2.0, ((0, 1), (1, 0))), ValueError, r"alphabet size 2\.0 is not an integer"),
    (lambda: fixed_point_prefix(RUDIN_SHAPIRO, 10.0), ValueError, r"prefix length 10\.0 is not an integer"),
    (lambda: prefix_correlation(fixed_point_prefix(RUDIN_SHAPIRO, 100), (0,), 2.0), ValueError,
     r"shift 2\.0 is not an integer"),
    (lambda: empirical_correlation(RUDIN_SHAPIRO, (0,), 1, 100.5), ValueError, r"prefix length 100\.5 is not an integer"),
    (lambda: prefix_block_frequencies(RUDIN_SHAPIRO, 100.0), ValueError, r"prefix length 100\.0 is not an integer"),
    # a str tol gets the tol message, like a nan one
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol="x"), ValueError, "tol must be a finite number >= 0, got x"),
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol=[1]), ValueError, r"tol must be a finite number >= 0, got \[1\]"),
    # an int with no float is worded as _real words it: 10**400 would print 401 digits, and str() of
    # 10**5000 raises past CPython's 4,300-digit limit
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol=10**400), ValueError,
     "tol must be a finite number >= 0, got a number too large for a float"),
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol=-10**5000), ValueError,
     "tol must be a finite number >= 0, got a number too large for a float"),
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol=10**5000), ValueError,
     "tol must be a finite number >= 0, got a number too large for a float"),
    (lambda: perron(composition_matrix(RUDIN_SHAPIRO), tol=-3), ValueError, r"tol must be a finite number >= 0, got -3\.0"),
])
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
