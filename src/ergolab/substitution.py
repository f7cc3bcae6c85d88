"""Primitive substitution systems and their frequency data.

A substitution on the alphabet A = {0, ..., k-1} maps each letter to a
nonempty word over A and extends to words by concatenation.  When the
substitution is primitive (some power maps every letter to a word
containing every letter), the associated subshift is uniquely ergodic and
all frequency questions reduce to Perron-Frobenius data of the
composition matrix M, whose entry (i, j) counts occurrences of letter i
in the image of letter j.  The data come from one eigen-decomposition
of M and one of its transpose, and are accepted only when the residual
||M right - theta right||_inf is at most tol * max(1, theta):

  * letter frequencies  = l1-normalized right Perron eigenvector of M,
  * per-letter limits   v(a) = lim M^n e_a / theta^n, realized here as
    left[a] * right under the normalization left . right = 1,
  * 2-block (cylinder) frequencies = right Perron eigenvector of the
    composition matrix of the induced substitution on admissible
    2-blocks, where the image of block (ab) consists of the first
    |image(a)| consecutive 2-blocks of image(a)image(b).

From these the rigidity constant alpha = r * rho is formed, with r the
largest frequency of a repeated-letter block (aa) and rho = ||v(a_r)||_1
for the smallest letter a_r attaining r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

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
    pass


def _as_word(w: Iterable[int]) -> Word:
    return tuple(int(s) for s in w)


@dataclass(frozen=True)
class Substitution:
    """A map letter -> nonempty word over {0..alphabet_size-1}."""

    alphabet_size: int
    images: tuple[Word, ...]
    name: str | None = None

    def __post_init__(self):
        k = self.alphabet_size
        if k < 1:
            raise ValueError("alphabet_size must be positive")
        if len(self.images) != k:
            raise ValueError("need exactly one image per letter")
        object.__setattr__(self, "images", tuple(_as_word(w) for w in self.images))
        for w in self.images:
            if not w:
                raise ValueError("images must be nonempty")
            if any(s < 0 or s >= k for s in w):
                raise ValueError("image symbol out of alphabet range")

    def image(self, letter: int) -> Word:
        return self.images[letter]

    def apply(self, word: Iterable[int]) -> Word:
        out: list[int] = []
        for s in word:
            out.extend(self.images[s])
        return tuple(out)

    @property
    def is_fixed_point_capable(self) -> bool:
        """True when image(0) starts with 0 and |image^n(0)| grows (n <= 5)."""
        if self.images[0][0] != 0:
            return False
        w: Word = (0,)
        prev = len(w)
        for _ in range(5):
            w = self.apply(w)
            if len(w) <= prev:
                return False
            prev = len(w)
        return True

    @classmethod
    def from_lines(cls, lines: Iterable[str], name: str | None = None) -> "Substitution":
        """Parse the `i -> w` text format.

        `w` is a digit string for alphabets up to 10 letters, or
        whitespace-separated indices.
        """
        mapping: dict[int, Word] = {}
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise ValueError(f"bad substitution line: {raw!r}")
            lhs, rhs = line.split("->", 1)
            letter = int(lhs.strip())
            rhs = rhs.strip()
            if " " in rhs:
                word = _as_word(rhs.split())
            else:
                word = _as_word(int(c) for c in rhs)
            if letter in mapping:
                raise ValueError(f"duplicate image for letter {letter}")
            mapping[letter] = word
        if not mapping:
            raise ValueError("empty substitution definition")
        k = max(mapping) + 1
        if sorted(mapping) != list(range(k)):
            raise ValueError("letters must be 0..k-1 with no gaps")
        return cls(k, tuple(mapping[i] for i in range(k)), name=name)


RUDIN_SHAPIRO = Substitution(4, ((0, 2), (3, 2), (0, 1), (3, 1)), name="rudin-shapiro")
THREE_LETTER = Substitution(3, ((0, 0, 1), (1, 2, 2), (2, 1, 0)), name="three-letter")

# Reference value reported elsewhere for the three-letter example's rigidity
# constant; kept for comparison output only, never asserted.
THREE_LETTER_REFERENCE_ALPHA = 0.3104979673e-7


def composition_matrix(sub: Substitution) -> np.ndarray:
    """k x k integer matrix; entry (i, j) counts letter i in image(j)."""
    k = sub.alphabet_size
    M = np.zeros((k, k), dtype=np.int64)
    for j, w in enumerate(sub.images):
        for s in w:
            M[s, j] += 1
    return M


def is_primitive(sub: Substitution) -> bool:
    """Some power of the composition matrix is entrywise positive.

    Powers up to the Wielandt bound k^2 - 2k + 2 suffice; positivity
    patterns are tracked with boolean matrices so entries cannot overflow.
    """
    return _matrix_is_primitive(composition_matrix(sub))


def _matrix_is_primitive(M: np.ndarray) -> bool:
    k = M.shape[0]
    pattern = (M > 0).astype(np.uint8)
    bound = k * k - 2 * k + 2
    P = pattern.copy()
    for _ in range(bound):
        if P.all():
            return True
        P = ((P @ pattern) > 0).astype(np.uint8)
    return bool(P.all())


@dataclass(frozen=True)
class PerronData:
    theta: float
    right_vec: np.ndarray
    left_vec: np.ndarray
    letter_freq: np.ndarray
    letter_limits: tuple[np.ndarray, ...]
    residual: float


def _dominant_eigenvector(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest modulus and its eigenvector, normalized to sum 1.

    For a primitive matrix that eigenvalue is simple and real, and its
    eigenvector has entries of one sign.
    """
    eigvals, eigvecs = np.linalg.eig(A)
    i = int(np.argmax(np.abs(eigvals)))
    v = eigvecs[:, i].real
    return float(eigvals[i].real), v / v.sum()


def perron(M: np.ndarray, tol: float = 1e-12) -> PerronData:
    """Perron-Frobenius data of a primitive nonnegative integer matrix.

    theta and the right eigenvector come from one eigen-decomposition of
    M, the left eigenvector from one of M.T.  The right eigenvector is
    normalized to l1-sum 1 (letter frequencies); the left eigenvector is
    scaled so that left . right = 1, which makes v(a) = left[a] * right the
    limit of M^n e_a / theta^n.  For constant-column-sum matrices
    (constant-length substitutions) theta is the exact integer column sum.
    NoConvergence is raised when the residual ||M right - theta right||_inf
    exceeds tol * max(1, theta), or when a vector is not strictly positive.
    """
    M = np.asarray(M)
    if not _matrix_is_primitive(M):
        raise NotPrimitive("matrix has no entrywise-positive power")
    A = M.astype(float)
    theta, right = _dominant_eigenvector(A)
    _, left_raw = _dominant_eigenvector(A.T)

    col_sums = M.sum(axis=0)
    if np.all(col_sums == col_sums[0]):
        theta = float(col_sums[0])

    left = left_raw / float(left_raw @ right)
    letter_freq = right.copy()  # already l1-normalized
    limits = tuple(left[a] * right for a in range(M.shape[0]))
    residual = float(np.abs(A @ right - theta * right).max())
    if residual > tol * max(1.0, theta):
        raise NoConvergence(f"Perron residual {residual:.3e} exceeds tol={tol}")
    if right.min() <= 0 or left.min() <= 0:
        raise NoConvergence("eigenvector failed strict positivity")
    return PerronData(theta, right, left, letter_freq, limits, residual)


def fixed_point_prefix(sub: Substitution, length: int) -> np.ndarray:
    """First `length` symbols of the one-sided fixed point starting at 0."""
    if length < 1:
        raise ValueError("length must be positive")
    if not sub.is_fixed_point_capable:
        raise NotFixedPointCapable("image of 0 must start with 0 and grow")
    lens = np.array([len(img) for img in sub.images], dtype=np.int64)
    flat = np.array([s for img in sub.images for s in img], dtype=np.int64)
    starts = np.cumsum(lens) - lens
    w = np.zeros(1, dtype=np.int64)
    while len(w) < length:
        ends = np.cumsum(lens[w])
        # expand only up to the first letter whose image reaches `length`
        used = int(np.searchsorted(ends, length)) + 1
        w, ends = w[:used], ends[:used]
        if ends[-1] <= len(w):
            raise NotFixedPointCapable("prefix stopped growing")
        sizes = lens[w]
        w = flat[np.repeat(starts[w] - (ends - sizes), sizes) + np.arange(ends[-1])]
    return w[:length]


def word_to_str(word: Iterable[int]) -> str:
    return "".join(str(int(s)) for s in word)


Block = tuple[int, int]


@dataclass(frozen=True)
class PairSubstitution:
    """The induced substitution on admissible 2-blocks of the fixed point."""

    block_alphabet: tuple[Block, ...]
    images: dict[Block, tuple[Block, ...]] = field(compare=False)
    base: Substitution = field(compare=False)

    def as_substitution(self) -> Substitution:
        index = {b: i for i, b in enumerate(self.block_alphabet)}
        images = tuple(
            tuple(index[b] for b in self.images[blk]) for blk in self.block_alphabet
        )
        return Substitution(len(self.block_alphabet), images)


def _block_image(sub: Substitution, block: Block) -> tuple[Block, ...]:
    a, b = block
    w = sub.images[a] + sub.images[b]
    n = len(sub.images[a])
    return tuple((w[i], w[i + 1]) for i in range(n))


def pair_substitution(sub: Substitution) -> PairSubstitution:
    """Admissible 2-blocks with their induced images, computed by closure.

    Seeded with the 2-blocks of a short fixed-point prefix, then closed
    under the block-image map; closure cannot miss rare blocks the way a
    fixed prefix scan could.
    """
    if not is_primitive(sub):
        raise NotPrimitive("pair substitution requires a primitive base")
    if not sub.is_fixed_point_capable:
        raise NotFixedPointCapable("pair substitution requires a fixed point")
    w: Word = (0,)
    for _ in range(4):
        w = sub.apply(w)
        if len(w) > 64:
            break
    seed = {(w[i], w[i + 1]) for i in range(len(w) - 1)}
    images: dict[Block, tuple[Block, ...]] = {}
    frontier = sorted(seed)
    while frontier:
        blk = frontier.pop()
        if blk in images:
            continue
        img = _block_image(sub, blk)
        images[blk] = img
        for nb in img:
            if nb not in images:
                frontier.append(nb)
    return PairSubstitution(tuple(sorted(images)), images, sub)


def block_frequencies(sub: Substitution, tol: float = 1e-12) -> dict[Block, float]:
    """Frequencies of admissible 2-blocks (l1-normalized Perron vector)."""
    pair = pair_substitution(sub)
    M2 = composition_matrix(pair.as_substitution())
    data = perron(M2, tol=tol)
    return {blk: float(f) for blk, f in zip(pair.block_alphabet, data.letter_freq)}


@dataclass(frozen=True)
class RigidityConstant:
    r: float
    rho: float
    alpha: float
    witness_letter: int


def rigidity_constant(sub: Substitution, tol: float = 1e-12) -> RigidityConstant:
    """alpha = r * rho with r the top repeated-letter block frequency.

    Blocks (aa) absent from the language contribute frequency 0; ties are
    broken toward the smallest letter.
    """
    freqs = block_frequencies(sub, tol=tol)
    return _rigidity_from(freqs, perron(composition_matrix(sub), tol=tol))


def _rigidity_from(freqs: dict[Block, float], data: PerronData) -> RigidityConstant:
    """The rigidity constant from the 2-block frequencies and the Perron data of M."""
    diag = [freqs.get((a, a), 0.0) for a in range(len(data.right_vec))]
    r = max(diag)
    witness = diag.index(r)
    rho = float(np.abs(data.letter_limits[witness]).sum())
    return RigidityConstant(r=r, rho=rho, alpha=r * rho, witness_letter=witness)


def prefix_correlation(prefix: np.ndarray, block: Iterable[int], shift: int) -> float:
    """Fraction of prefix positions carrying `block` at both p and p+shift.

    At shift 0 it is the empirical frequency of the block itself.
    """
    block = _as_word(block)
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    n = len(prefix)
    L = len(block)
    if n <= shift + L:
        raise PrefixTooShort(f"need prefix_len > shift + block length = {shift + L}")
    occ = np.ones(n - L + 1, dtype=bool)
    for off, sym in enumerate(block):
        occ &= prefix[off : n - L + 1 + off] == sym
    limit = n - shift - L
    hits = occ[:limit] & occ[shift : shift + limit]
    return float(hits.sum()) / limit


def empirical_correlation(
    sub: Substitution, block: Iterable[int], shift: int, prefix_len: int
) -> float:
    """`prefix_correlation` on the first `prefix_len` symbols of the fixed point.

    Brute-force counterpart of the eigenvector frequencies.
    """
    return prefix_correlation(fixed_point_prefix(sub, prefix_len), block, shift)
