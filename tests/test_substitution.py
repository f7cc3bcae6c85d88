import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergolab.substitution import (
    RUDIN_SHAPIRO,
    THREE_LETTER,
    NoConvergence,
    NotFixedPointCapable,
    NotPrimitive,
    PrefixTooShort,
    Substitution,
    block_frequencies,
    composition_matrix,
    empirical_correlation,
    fixed_point_prefix,
    is_primitive,
    pair_substitution,
    perron,
    rigidity_constant,
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


def test_from_lines_digit_and_index_formats():
    sub = Substitution.from_lines(["0 -> 02", "1 -> 32", "2 -> 01", "3 -> 31"])
    assert sub.images == RUDIN_SHAPIRO.images
    sub2 = Substitution.from_lines(["0 -> 0 1", "1 -> 0"])
    assert sub2.images == FIBONACCI.images


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
        assert tuple(M[:, j]) == col


def test_composition_matrix_three_letter():
    M = composition_matrix(THREE_LETTER)
    assert [tuple(M[:, j]) for j in range(3)] == [(2, 1, 0), (0, 1, 2), (1, 1, 1)]


def test_composition_matrix_identity_like():
    M = composition_matrix(Substitution(1, ((0,),)))
    assert M.tolist() == [[1]]


@settings(max_examples=40, deadline=None)
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
    assert [int(s) for s in M.sum(axis=0)] == [len(w) for w in sub.images]


# -- primitivity ---------------------------------------------------------------


def test_primitivity_cases():
    assert is_primitive(RUDIN_SHAPIRO)
    assert is_primitive(THREE_LETTER)
    assert is_primitive(FIBONACCI)  # M^2 entrywise positive
    assert not is_primitive(Substitution(2, ((0, 0), (1, 1))))  # letters never mix


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
        eigvals, eigvecs = np.linalg.eig(M.astype(float))
        i = np.argmax(np.abs(eigvals))
        assert abs(data.theta - eigvals[i].real) < 1e-9
        v = np.abs(eigvecs[:, i].real)
        assert np.allclose(data.letter_freq, v / v.sum(), atol=1e-9)


def test_letter_limits_match_iterative_oracle():
    # v(a) should be the limit of M^n e_a / theta^n
    for sub in (RUDIN_SHAPIRO, THREE_LETTER, FIBONACCI):
        M = composition_matrix(sub).astype(float)
        data = perron(M.astype(np.int64))
        n = 40
        P = np.linalg.matrix_power(M, n) / data.theta**n
        for a, v in enumerate(data.letter_limits):
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


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions())
def test_perron_residual_and_limits_on_random_substitutions(sub):
    tol = 1e-12
    M = composition_matrix(sub).astype(float)
    data = perron(composition_matrix(sub), tol=tol)
    residual = np.abs(M @ data.right_vec - data.theta * data.right_vec).max()
    assert residual <= tol * max(1.0, data.theta)
    # M^n e_a / theta^n; |lambda_2| / theta reaches ~0.985 in this family,
    # so n = 2^14 leaves a truncation error far below the tolerance
    P = np.linalg.matrix_power(M / data.theta, 2**14)
    for a, v in enumerate(data.letter_limits):
        assert np.allclose(P[:, a], v, atol=1e-6), (sub.images, a)


def test_perron_constant_length_limit_norms_are_one():
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        data = perron(composition_matrix(sub))
        for v in data.letter_limits:
            assert abs(np.abs(v).sum() - 1.0) < 1e-10


def test_perron_rejects_nonprimitive():
    with pytest.raises(NotPrimitive):
        perron(composition_matrix(Substitution(2, ((0, 0), (1, 1)))))


def test_perron_positive_vectors():
    data = perron(composition_matrix(THREE_LETTER))
    assert data.right_vec.min() > 0
    assert data.left_vec.min() > 0
    assert abs(data.letter_freq.sum() - 1.0) < 1e-12


# -- fixed point ----------------------------------------------------------------


def test_fixed_point_prefix_frozen_values():
    assert word_to_str(fixed_point_prefix(RUDIN_SHAPIRO, 8)) == "02010232"
    assert word_to_str(fixed_point_prefix(THREE_LETTER, 9)) == "001001122"
    assert word_to_str(fixed_point_prefix(RUDIN_SHAPIRO, 1)) == "0"


def test_fixed_point_prefix_nesting():
    long = fixed_point_prefix(RUDIN_SHAPIRO, 512)
    for n in (1, 7, 100, 511):
        assert np.array_equal(fixed_point_prefix(RUDIN_SHAPIRO, n), long[:n])


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


@settings(max_examples=80, deadline=None)
@given(fixed_point_substitutions(), st.sampled_from([1, 2, 7, 100, 4096]) | st.integers(1, 3000))
def test_fixed_point_prefix_matches_oracle(sub, length):
    got = fixed_point_prefix(sub, length)
    assert got.dtype == np.int64
    assert got.tolist() == prefix_oracle(sub, length)


def test_fixed_point_prefix_requires_capability():
    with pytest.raises(NotFixedPointCapable):
        fixed_point_prefix(Substitution(2, ((1, 0), (0, 1))), 4)


# -- pair substitution -----------------------------------------------------------


def test_pair_substitution_rudin_shapiro_block():
    pair = pair_substitution(RUDIN_SHAPIRO)
    assert pair.images[(0, 2)] == ((0, 2), (2, 0))
    # image length equals |image of the first letter|
    for (a, _), img in pair.images.items():
        assert len(img) == len(RUDIN_SHAPIRO.images[a])
    # every image block is admissible
    admissible = set(pair.block_alphabet)
    for img in pair.images.values():
        assert set(img) <= admissible


def test_pair_substitution_three_letter_block():
    pair = pair_substitution(THREE_LETTER)
    assert pair.images[(0, 0)] == ((0, 0), (0, 1), (1, 0))


def test_pair_substitution_trivial():
    pair = pair_substitution(Substitution(1, ((0, 0),)))
    assert pair.block_alphabet == ((0, 0),)
    assert pair.images[(0, 0)] == ((0, 0), (0, 0))


def test_pair_blocks_match_long_prefix_scan():
    # closure finds exactly the blocks occurring in the fixed point
    for sub in (RUDIN_SHAPIRO, THREE_LETTER):
        prefix = fixed_point_prefix(sub, 2**14)
        seen = {(int(a), int(b)) for a, b in zip(prefix[:-1], prefix[1:])}
        assert seen == set(pair_substitution(sub).block_alphabet)


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


def test_block_frequencies_match_eig_oracle():
    pair = pair_substitution(THREE_LETTER)
    M2 = composition_matrix(pair.as_substitution()).astype(float)
    eigvals, eigvecs = np.linalg.eig(M2)
    i = np.argmax(np.abs(eigvals))
    v = np.abs(eigvecs[:, i].real)
    v /= v.sum()
    freqs = block_frequencies(THREE_LETTER)
    for blk, expected in zip(pair.block_alphabet, v):
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
