"""Primitive substitution systems and their frequency data.

A substitution on the alphabet A = {0, ..., k-1} maps each letter to a
nonempty word over A and extends to words by concatenation.  When the
substitution is primitive (some power maps every letter to a word
containing every letter), the associated subshift is uniquely ergodic and
all frequency questions reduce to Perron-Frobenius data of the
composition matrix M, whose entry (i, j) counts occurrences of letter i
in the image of letter j.  The data come from one eigen-decomposition
of M, plus one of its transpose when the image lengths differ (with
constant length q the left vector is all ones, since 1^T M = q 1^T), and
are accepted only when the residual ||M right - theta right||_inf is at
most tol * max(1, theta):

  * letter frequencies  = l1-normalized right Perron eigenvector of M,
  * per-letter limits   v(a) = lim M^n e_a / theta^n, realized here as
    left[a] * right under the normalization left . right = 1,
  * 2-block (cylinder) frequencies = the solution v of one linear system
    built from the letter data (Queffelec, LNM 1294): in u = sigma(u)
    every 2-block lies inside some image(c) or straddles image(c)image(d),
    so theta v = A f + B v, where A(ab, c) counts ab inside image(c) and B
    sends block cd to (last letter of image(c), first letter of image(d)).
    B maps the blocks to themselves, so its spectral radius is 1 < theta
    and v is unique; it is solved along B's functional graph in
    O(|blocks|) time and memory, with no matrix.

From these `block_analysis` forms the rigidity constant alpha = r * rho, with
r the largest frequency of a repeated-letter block (aa) and rho = ||v(a_r)||_1
for the smallest letter a_r whose (aa) frequency is within tol * r of r.

The empirical side reads a prefix of the fixed point u starting at 0.
u is also the fixed point of every power sigma^j, so one step (each letter
of a word replaced by its table image) composes sigma^j, then grows u with
each prefix letter expanded once.  `prefix_correlation` scans it for one block
and `prefix_block_frequencies` counts all 2-blocks for `subst analyze`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import fsum
from typing import Iterable, NamedTuple, Sequence

Word = tuple[int, ...]


class SubstitutionError(Exception):
    """Base class for substitution-domain failures."""


class NotPrimitive(SubstitutionError):
    pass


class NoConvergence(SubstitutionError):
    pass


class NotFixedPointCapable(SubstitutionError):
    pass


class PrefixTooShort(SubstitutionError):
    def __init__(self, span: int):
        super().__init__(f"need prefix_len > shift + block length = {span}")


def _as_word(w: Iterable[int]) -> Word:
    return tuple(int(s) for s in w)


class Substitution:
    """A map letter -> nonempty word over {0..alphabet_size-1}."""

    __slots__ = ("alphabet_size", "images", "name")

    def __init__(self, alphabet_size: int, images: Sequence[Iterable[int]], name: str | None = None):
        k = alphabet_size
        if k < 1:
            raise ValueError("alphabet_size must be positive")
        if len(images) != k:
            raise ValueError("need exactly one image per letter")
        self.alphabet_size, self.images, self.name = k, tuple(_as_word(w) for w in images), name
        for w in self.images:
            if not w:
                raise ValueError("images must be nonempty")
            if any(s < 0 or s >= k for s in w):
                raise ValueError("image symbol out of alphabet range")

    @property
    def is_fixed_point_capable(self) -> bool:
        """True when image(0) = 0w with w nonempty.

        Then |image^n(0)| grows at every step, since each letter after the
        first adds at least one letter, and image^n(0) converges to a fixed
        point starting at 0.
        """
        return self.images[0][0] == 0 and len(self.images[0]) > 1

    @classmethod
    def from_lines(cls, lines: Iterable[str], name: str | None = None) -> "Substitution":
        """Parse the `i -> w` text format, with each `w` read by `str_to_word`
        once the alphabet size k (the largest letter i, plus one) is known."""
        mapping: dict[int, tuple[str, str]] = {}  # letter -> (its image text, the error naming its line)
        for n, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            bad = f"line {n}: bad substitution line {raw!r}"
            lhs, arrow, rhs = line.partition("->")
            if not arrow:
                raise ValueError(bad)
            try:
                letter = int(lhs)
            except ValueError:
                raise ValueError(bad) from None
            if letter in mapping:
                raise ValueError(f"duplicate image for letter {letter}")
            mapping[letter] = rhs, bad
        if not mapping:
            raise ValueError("empty substitution definition")
        k = max(mapping) + 1
        if min(mapping) < 0 or len(mapping) != k:  # the keys are distinct, so these say 0..k-1
            raise ValueError("letters must be 0..k-1 with no gaps")
        images = []
        for i in range(k):
            rhs, bad = mapping[i]
            try:
                images.append(str_to_word(rhs, k))
            except ValueError:
                raise ValueError(bad) from None
        return cls(k, images, name=name)


RUDIN_SHAPIRO = Substitution(4, ((0, 2), (3, 2), (0, 1), (3, 1)), name="rudin-shapiro")
THREE_LETTER = Substitution(3, ((0, 0, 1), (1, 2, 2), (2, 1, 0)), name="three-letter")

# Reference value reported elsewhere for the three-letter example's rigidity
# constant; kept for comparison output only, never asserted.
THREE_LETTER_REFERENCE_ALPHA = 0.3104979673e-7


def composition_matrix(sub: Substitution) -> np.ndarray:
    """k x k integer matrix; entry (i, j) counts letter i in image(j)."""
    import numpy as np
    k = sub.alphabet_size
    cells = [i * k + j for j, w in enumerate(sub.images) for i in w]
    return np.bincount(cells, minlength=k * k).reshape(k, k)


def is_primitive(sub: Substitution) -> bool:
    """Some power of the composition matrix is entrywise positive.

    A primitive k x k matrix has every power from the Wielandt bound
    k^2 - 2k + 2 on entrywise positive, so squaring the positivity pattern
    until its exponent reaches the bound decides primitivity.  Patterns are
    boolean matrices, whose products cannot overflow.
    """
    return _matrix_is_primitive(composition_matrix(sub))


def _matrix_is_primitive(M: np.ndarray) -> bool:
    k = M.shape[0]
    P = M > 0
    exponent = 1
    while not P.all():
        if exponent >= k * k - 2 * k + 2:
            return False
        P = P @ P
        exponent *= 2
    return True


@dataclass(frozen=True)
class PerronData:
    theta: float
    left_vec: np.ndarray
    letter_freq: np.ndarray
    residual: float


def _dominant_eigenvector(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest modulus and its eigenvector, normalized to sum 1.

    For a primitive matrix that eigenvalue is simple and real, and its
    eigenvector has entries of one sign.
    """
    import numpy as np
    eigvals, eigvecs = np.linalg.eig(A)
    i = int(np.argmax(np.abs(eigvals)))
    v = eigvecs[:, i].real
    return float(eigvals[i].real), v / v.sum()


def perron(M: np.ndarray, tol: float = 1e-12) -> PerronData:
    """Perron-Frobenius data of a primitive nonnegative integer matrix.

    theta and the right eigenvector come from one eigen-decomposition of
    M.  The right eigenvector is normalized to l1-sum 1 (letter
    frequencies); the left eigenvector is scaled so that left . right = 1,
    which makes v(a) = left[a] * right the limit of M^n e_a / theta^n.  For
    constant-column-sum matrices (constant-length substitutions) theta is
    the exact integer column sum q and the left vector is exactly all ones,
    since 1^T M = q 1^T; other matrices take it from one eigen-decomposition
    of M.T.  NotPrimitive (the analysis' one primitivity check) is raised
    when no power of M is entrywise positive, NoConvergence when
    ||M right - theta right||_inf exceeds tol * max(1, theta) or a vector is
    not strictly positive.
    """
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    import numpy as np
    M = np.asarray(M)
    if not _matrix_is_primitive(M):
        raise NotPrimitive("matrix has no entrywise-positive power")
    A = M.astype(float)
    theta, right = _dominant_eigenvector(A)

    col_sums = M.sum(axis=0)
    if np.all(col_sums == col_sums[0]):
        theta, left = float(col_sums[0]), np.ones(len(A))
    else:
        _, left_raw = _dominant_eigenvector(A.T)
        left = left_raw / float(left_raw @ right)
    residual = float(np.abs(A @ right - theta * right).max())
    if residual > tol * max(1.0, theta):
        raise NoConvergence(f"Perron residual {residual:.3e} exceeds tol={tol}")
    if right.min() <= 0 or left.min() <= 0:
        raise NoConvergence("eigenvector failed strict positivity")
    return PerronData(theta, left, right, residual)


# Letters the sigma^j image table of `fixed_point_prefix` may hold: of
# 512..8192, 4096 built each measured class of prefix (CHANGES.md) within
# 1.3x of the fastest bound.
_POWER_LETTERS = 4096


def fixed_point_prefix(sub: Substitution, length: int) -> np.ndarray:
    """First `length` symbols of the one-sided fixed point u starting at 0.

    u is also the fixed point of every power sigma^j, so composing sigma^j and
    growing u are one step: a word of array("I") bytes becomes the join of its
    letters' table images.  The step squares the table, sigma^(2j)(a) =
    sigma^j(sigma^j(a)), while it holds at most _POWER_LETTERS letters, so even
    length-1 images take O(log j) steps.  Then each pass appends to w =
    sigma^j(u[:done]), a prefix of u, only the images of the letters from `done`
    up to the one whose image reaches `length`: no letter is expanded twice.
    """
    import numpy as np
    from array import array
    if length < 1:
        raise ValueError("length must be positive")
    if not sub.is_fixed_point_capable:
        raise NotFixedPointCapable("image of 0 must start with 0 and grow")
    size = array("I").itemsize
    table = [array("I", img).tobytes() for img in sub.images]
    lens = [len(img) for img in table]  # in bytes, as are all lengths below

    def step(word: bytes) -> bytes:
        return b"".join(map(table.__getitem__, memoryview(word).cast("I")))

    while len(table[0]) < size * length:
        grown = [sum(map(lens.__getitem__, memoryview(img).cast("I"))) for img in table]
        if sum(grown) > size * _POWER_LETTERS:
            break
        table, lens = [step(img) for img in table], grown
    word, done = table[0], 1
    while len(word) < size * length:
        need = size * length - len(word)
        # enough letters to reach `length` even if every image is the shortest
        chunk = word[size * done : size * (done - -need // min(lens))]
        ends = list(accumulate(map(lens.__getitem__, memoryview(chunk).cast("I"))))
        chunk = chunk[: size * (bisect_left(ends, need) + 1)]
        word, done = word + step(chunk), done + len(chunk) // size
    return np.frombuffer(word, np.uintc, length).astype(np.int64)


def word_to_str(word: Iterable[int], alphabet_size: int = 10) -> str:
    """A word in the format `str_to_word` reads: a digit string on
    alphabets of up to 10 letters, else space-separated indices."""
    return (" " if alphabet_size > 10 else "").join(str(int(s)) for s in word)


def str_to_word(text: str, alphabet_size: int = 10) -> Word:
    """The inverse of `word_to_str`: letter indices separated by commas or
    by whitespace, where a lone token on an alphabet of up to 10 letters
    holds one letter per digit.  A token that is no integer raises
    ValueError; letters are not range-checked here."""
    tokens = text.split(",") if "," in text else text.split()
    return _as_word(tokens[0] if len(tokens) == 1 and alphabet_size <= 10 else tokens)


Block = tuple[int, int]


def pair_substitution(sub: Substitution) -> dict[Block, tuple[Block, ...]]:
    """The induced substitution on admissible 2-blocks: a dict from each
    block to its image blocks, whose keys are the block alphabet in sorted
    order.

    The blocks are the closure under the block-image map of the first
    2-block of the first image with two letters, whose n-th image holds
    every 2-block that starts inside image^n of it.  For a primitive
    substitution that seed is in the 2-block language and its closure is
    the whole language, rare blocks included, which a fixed prefix scan
    could miss.  When image(0) = 0w the seed is the first block
    (0, image(0)[1]) of the fixed point at 0, so the closure is that fixed
    point's 2-block language whether or not the base is primitive.  With
    no image of two letters there is no seed (NotFixedPointCapable).
    """
    seed = next((w[:2] for w in sub.images if len(w) > 1), None)
    if seed is None:
        raise NotFixedPointCapable("pair substitution needs an image of two or more letters")
    images: dict[Block, tuple[Block, ...]] = {}
    frontier = [seed]
    while frontier:
        blk = frontier.pop()
        if blk in images:
            continue
        w, n = sub.images[blk[0]] + sub.images[blk[1]], len(sub.images[blk[0]])
        images[blk] = tuple(zip(w[:n], w[1 : n + 1]))
        frontier.extend(images[blk])
    return {blk: images[blk] for blk in sorted(images)}


def block_frequencies(sub: Substitution, tol: float = 1e-12) -> dict[Block, float]:
    """Frequencies of the 2-blocks of `pair_substitution`, from the Perron
    data of M restricted to the letters of those blocks, whose primitivity
    `perron` decides.  With a primitive base that is M itself; on a
    non-primitive base the fixed point at 0 may still use a primitive part
    of M (0->01, 1->10, 2->22 gives Thue-Morse's 1/6, 1/3, 1/3, 1/6).
    The blocks take the O(|blocks|) solve of `_block_frequencies`."""
    import numpy as np
    pair = pair_substitution(sub)
    letters = _block_letters(pair)
    data = perron(composition_matrix(sub)[np.ix_(letters, letters)], tol=tol)
    return _block_frequencies(sub, pair, data, tol)


def _block_letters(pair: dict[Block, tuple[Block, ...]]) -> list[int]:
    return sorted({a for blk in pair for a in blk})


def _block_frequencies(
    sub: Substitution, pair: dict[Block, tuple[Block, ...]], data: PerronData, tol: float
) -> dict[Block, float]:
    """The frequencies v of `pair`'s blocks, the solution of
    (theta I - B) v = A f (see the module docstring) with f and theta from
    `data`, the Perron data of M on the letters of those blocks.

    B(cd), the last block of cd's image, is cd's one successor, so
    theta v(x) = (A f)(x) + the sum of v over x's predecessors, solved in
    O(|blocks|) along B's functional graph.  Tree blocks go first, each
    after all of its predecessors.  What is left are the cycles
    c0 -> ... -> c(L-1) -> c0: one pass round a cycle from v(c0) = 0 gives x,
    and v(c0) = x + v(c0) theta^-L, so v(c0) = x / (1 - theta^-L); a second
    pass fills in the rest.  Every term is positive, so nothing cancels.
    NoConvergence is raised when ||(theta I - B) v - A f||_inf exceeds
    tol * max(1, theta) or v is not strictly positive.
    """
    n = len(pair)
    if n == 1:  # one block has frequency 1, also where theta = 1 makes theta I - B singular
        return dict.fromkeys(pair, 1.0)
    index = {b: i for i, b in enumerate(pair)}
    rhs = [0.0] * n
    for c, f in zip(_block_letters(pair), data.letter_freq.tolist(), strict=True):
        w = sub.images[c]
        for blk in zip(w, w[1:]):
            rhs[index[blk]] += f
    theta = data.theta
    succ = [index[img[-1]] for img in pair.values()]
    preds = [0] * n  # predecessors not yet solved
    for j in succ:
        preds[j] += 1
    v = [0.0] * n
    acc = rhs[:]  # rhs plus v over the solved predecessors
    ready = [i for i in range(n) if not preds[i]]
    while ready:
        i = ready.pop()
        v[i] = acc[i] / theta
        j = succ[i]
        acc[j] += v[i]
        preds[j] -= 1
        if not preds[j]:
            ready.append(j)
    for c0 in range(n):  # what is left are cycles, each block waiting on its cycle predecessor
        if not preds[c0]:
            continue
        cycle = [c0]
        while succ[cycle[-1]] != c0:
            cycle.append(succ[cycle[-1]])
        x = 0.0
        for i in cycle[1:] + cycle[:1]:
            x = (acc[i] + x) / theta
        v[c0] = x / (1.0 - theta ** -len(cycle))
        for prev, i in zip(cycle, cycle[1:]):
            v[i] = (acc[i] + v[prev]) / theta
        for i in cycle:
            preds[i] = 0
    pred_sum = [0.0] * n
    for i, j in enumerate(succ):
        pred_sum[j] += v[i]
    residual = max(abs(theta * vi - p - r) for vi, p, r in zip(v, pred_sum, rhs))
    if residual > tol * max(1.0, theta):
        raise NoConvergence(f"block residual {residual:.3e} exceeds tol={tol}")
    if min(v) <= 0:
        raise NoConvergence("block frequencies failed strict positivity")
    total = fsum(v)
    return dict(zip(pair, (vi / total for vi in v)))


class RigidityConstant(NamedTuple):
    r: float
    rho: float
    alpha: float
    witness_letter: int


def block_analysis(
    sub: Substitution, data: PerronData, tol: float = 1e-12
) -> tuple[dict[Block, float], RigidityConstant, list[float]]:
    """The 2-block frequencies of `pair_substitution` (keys in block-alphabet
    order), the rigidity constant and the letter limit norms ||v(a)||_1, as
    the module docstring defines them, from `data`, the Perron data of M."""
    freqs = _block_frequencies(sub, pair_substitution(sub), data, tol)
    norms = (data.left_vec[:, None] * data.letter_freq).sum(axis=1).tolist()
    diag = [freqs.get((a, a), 0.0) for a in range(len(norms))]  # an absent (aa) has frequency 0
    r = max(diag)
    witness = next(a for a, x in enumerate(diag) if r - x <= tol * r)  # equal ones may differ in the last bits
    return freqs, RigidityConstant(r, norms[witness], r * norms[witness], witness), norms


def rigidity_constant(sub: Substitution, tol: float = 1e-12) -> RigidityConstant:
    """`block_analysis`'s alpha = r * rho on the Perron data of M, where a non-primitive base fails."""
    return block_analysis(sub, perron(composition_matrix(sub), tol=tol), tol)[1]


def prefix_correlation(prefix: np.ndarray, block: Iterable[int], shift: int) -> float:
    """Fraction of prefix positions carrying `block` at both p and p+shift.

    At shift 0 it is the empirical frequency of the block itself.
    """
    import numpy as np
    block = _as_word(block)
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    n = len(prefix)
    L = len(block)
    if n <= shift + L:
        raise PrefixTooShort(shift + L)
    occ = np.ones(n - L + 1, dtype=bool)
    for off, sym in enumerate(block):
        occ &= prefix[off : n - L + 1 + off] == sym
    limit = n - shift - L
    hits = occ[:limit] & occ[shift : shift + limit]
    return float(hits.sum()) / limit


def prefix_block_frequencies(prefix: np.ndarray, alphabet_size: int) -> dict[Block, float]:
    """Each 2-block of `prefix` with its frequency as `prefix_correlation(prefix,
    block, 0)` counts it, from one count of all blocks; a block it lacks has no key."""
    import numpy as np
    n, k = len(prefix), alphabet_size
    if n <= 2:
        raise PrefixTooShort(2)
    counts = np.bincount(prefix[: n - 2] * k + prefix[1 : n - 1]).tolist()
    return {divmod(i, k): c / (n - 2) for i, c in enumerate(counts) if c}


def empirical_correlation(
    sub: Substitution, block: Iterable[int], shift: int, prefix_len: int
) -> float:
    """`prefix_correlation` on the first `prefix_len` symbols of the fixed point.

    Brute-force counterpart of the eigenvector frequencies.
    """
    block, k = _as_word(block), sub.alphabet_size
    if not all(0 <= s < k for s in block):
        raise ValueError(f"block {' '.join(map(str, block))} has a letter outside 0..{k - 1}")
    return prefix_correlation(fixed_point_prefix(sub, prefix_len), block, shift)
