"""Primitive substitution systems and their frequency data.

A substitution on the alphabet A = {0, ..., k-1} maps each letter to a
nonempty word over A and extends to words by concatenation.  When the
substitution is primitive (some power maps every letter to a word
containing every letter), the associated subshift is uniquely ergodic and
all frequency questions reduce to Perron-Frobenius data of the
composition matrix M, whose entry (i, j) counts occurrences of letter i
in the image of letter j, accepted only when the residual
||M right - theta right||_inf is at most tol * max(1, theta):

  * letter frequencies  = l1-normalized right Perron eigenvector of M,
  * per-letter limits   v(a) = lim M^n e_a / theta^n = left[a] * right under
    left . right = 1, so ||v(a)||_1 = left[a] (1 with constant length),
  * 2-block (cylinder) frequencies = the solution v of one linear system
    built from the letter data (Queffelec, LNM 1294): in u = sigma(u)
    every 2-block lies inside some image(c) or straddles image(c)image(d),
    so theta v = A f + B v, where A(ab, c) counts ab inside image(c) and B
    sends block cd to (last letter of image(c), first letter of image(d)).
    B maps the blocks to themselves, so its spectral radius is 1 < theta
    and v is unique; it is solved along B's functional graph in
    O(|blocks|) time and memory, with no matrix.

From these `block_analysis` forms alpha = r * rho, with r the largest
frequency of a repeated-letter block (aa) and rho = ||v(a_r)||_1 = left[a_r]
for the smallest letter a_r whose (aa) frequency is within tol * r of r.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import fsum, ulp
from operator import mul, truediv
from typing import Iterable, NamedTuple, Sequence

from . import _integer, _real

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
    return tuple(_integer("letter", s) for s in w)


class Substitution:
    """A map letter -> nonempty word over {0..alphabet_size-1}."""

    __slots__ = ("alphabet_size", "images", "name")

    def __init__(self, alphabet_size: int, images: Sequence[Iterable[int]], name: str | None = None):
        k = _integer("alphabet size", alphabet_size)
        if k < 1:
            raise ValueError("alphabet_size must be positive")
        if len(images) != k:
            raise ValueError("need exactly one image per letter")
        self.alphabet_size, self.images, self.name = k, tuple(map(_as_word, images)), name
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
                word = str_to_word(rhs, k)
            except ValueError:
                raise ValueError(bad) from None
            if not word:
                raise ValueError(bad)
            images.append(word)
        return cls(k, images, name=name)


RUDIN_SHAPIRO = Substitution(4, ((0, 2), (3, 2), (0, 1), (3, 1)), name="rudin-shapiro")
THREE_LETTER = Substitution(3, ((0, 0, 1), (1, 2, 2), (2, 1, 0)), name="three-letter")


def composition_matrix(sub: Substitution) -> list[list[int]]:
    """k x k integer matrix as k rows; entry (i, j) counts letter i in image(j)."""
    k = sub.alphabet_size
    M = [[0] * k for _ in range(k)]
    for j, w in enumerate(sub.images):
        for i in w:
            M[i][j] += 1
    return M


def is_primitive(sub: Substitution) -> bool:
    """Some power of the composition matrix is entrywise positive."""
    return _matrix_is_primitive(composition_matrix(sub))


def _matrix_is_primitive(M: Sequence[Sequence[int]]) -> bool:
    """A primitive k x k matrix has every power from the Wielandt bound
    k^2 - 2k + 2 on entrywise positive, so squaring the positivity pattern
    until its exponent reaches the bound decides primitivity."""
    k = len(M)
    full = (1 << k) - 1
    rows = [sum(1 << j for j, x in enumerate(row) if x) for row in M]
    exponent = 1
    while any(r != full for r in rows):
        if exponent >= k * k - 2 * k + 2:
            return False
        squared = []
        for r in rows:
            acc, t = 0, 0
            while r and acc != full:
                low = r & -r
                t, r = low.bit_length() - 1, r ^ low
                acc |= rows[t]
            squared.append(acc)
        rows, exponent = squared, exponent * 2
    return True


class Vector(tuple):
    """A Perron vector: a tuple of floats with a scalar `*` and `-`."""

    __slots__ = ()

    def __mul__(self, c: float) -> "Vector":
        return Vector(x * c for x in self)
    __rmul__ = __mul__

    def __sub__(self, c: float) -> "Vector":
        return Vector(x - c for x in self)


@dataclass(frozen=True)
class PerronData:
    theta: float
    left_vec: Vector
    letter_freq: Vector
    residual: float


def _square_rows(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of M as lists of ints, for a square M of nonnegative integers."""
    k = len(M)
    if not k:
        raise ValueError("matrix must have at least one row")
    rows = [[-1] * k for _ in range(k)]  # an entry that is no integer stays -1
    for i, row in enumerate(M):
        if len(row) != k:
            raise ValueError(f"matrix must be square, row {i} has {len(row)} entries for {k} rows")
        for j, x in enumerate(row):
            try:
                rows[i][j] = _integer("entry", x)
            except ValueError:
                pass
            if rows[i][j] < 0:
                raise ValueError(f"entry ({i}, {j}) = {x!r} is not a nonnegative integer")
    return rows


def _solve(rows: list[list[float]]) -> list[float] | None:
    """x with A x = b, where `rows` are those of [A | b] (consumed), by
    Gaussian elimination with partial pivoting; None when a pivot is exactly
    0.  A row with 0 in the pivot column is not updated."""
    k = len(rows)
    done = []  # the pivot rows, in column order
    for c in range(k):
        best, p = 0.0, -1
        for r, row in enumerate(rows):
            if abs(row[c]) > best:
                best, p = abs(row[c]), r
        if p < 0:
            return None
        top = rows.pop(p)
        pivot = top[c]
        for row in rows:
            f = row[c]
            if f:
                f /= pivot
                for j in range(c + 1, k + 1):
                    row[j] -= f * top[j]
        done.append(top)
    x = [0.0] * k
    for c in range(k - 1, -1, -1):
        row = done[c]
        t = row[k]
        for j in range(c + 1, k):
            t -= row[j] * x[j]
        x[c] = t / row[c]
    return x


def _shifted(neg: list[list[float]], theta: float, b: Sequence[float]) -> list[list[float]]:
    """The rows of [theta I - R | b], where `neg` are the rows of -R."""
    A = [row + [bi] for row, bi in zip(neg, b)]
    for i, row in enumerate(A):
        row[i] += theta
    return A


def _null_vector(neg: list[list[float]], theta: float, norm: Sequence[float]) -> list[float] | None:
    """The x with (theta I - R) x = 0 and norm . x = 1, where `neg` are the
    rows of -R: the last equation is replaced by the normalisation.  For a
    simple eigenvalue theta with a positive left vector each row of
    theta I - R is a combination of the others, so the bordered system is
    nonsingular."""
    A = _shifted(neg, theta, [0.0] * len(neg))
    A[-1] = [*norm, 1.0]
    return _solve(A)


def _matvec(sparse: list[tuple[list[int], list[int]]], x: list[float]) -> list[float]:
    """M x, with each row of M as (columns, entries) of its nonzeros."""
    return [sum(map(mul, vals, map(x.__getitem__, cols))) for cols, vals in sparse]


def _collatz_wielandt(sparse: list[tuple[list[int], list[int]]], x: list[float]) -> tuple[float, float] | None:
    """min and max of (M x)_i / x_i, which bracket theta for a positive x
    (Seneta, Ch. 3); None when x is not positive."""
    if min(x) <= 0:
        return None
    ratios = list(map(truediv, _matvec(sparse, x), x))
    return min(ratios), max(ratios)


# A bound on the shifts of `perron`'s inverse iteration, which ends at the
# rounding floor: random primitive matrices of 1-40 letters took at most 11
# shifts, the primitive 300-letter cycle 0 -> 01, i -> i+1 took 7.
_MAX_SHIFTS = 100


def perron(M: Sequence[Sequence[int]], tol: float = 1e-12) -> PerronData:
    """Perron-Frobenius data of a primitive nonnegative integer matrix.

    The right eigenvector is normalized to l1-sum 1 (letter frequencies);
    the left eigenvector is scaled so that left . right = 1, which makes
    v(a) = left[a] * right the limit of M^n e_a / theta^n.  For
    constant-column-sum matrices (constant-length substitutions) theta is
    the exact integer column sum q and the left vector is exactly all ones,
    since 1^T M = q 1^T.  Other matrices take theta and the right vector by
    inverse iteration with Newton shifts (Noda, Numer. Math. 17, 1971) inside
    the Collatz-Wielandt bracket, down to its rounding floor.  ValueError is
    raised for an M that is not square or has an entry that is no
    nonnegative integer, NotPrimitive (the analysis' one primitivity check)
    when no power of M is entrywise positive, NoConvergence when
    ||M right - theta right||_inf exceeds tol * max(1, theta) or a vector is
    not strictly positive.
    """
    try:
        if _real("tol", tol) < 0:
            raise ValueError
    except ValueError:
        got = tol
        if isinstance(tol, int) and not isinstance(tol, bool):  # an int's digits are never formatted
            try:
                got = float(tol)
            except OverflowError:
                got = "a number too large for a float"
        raise ValueError(f"tol must be a finite number >= 0, got {got}") from None
    rows = _square_rows(M)
    if not _matrix_is_primitive(rows):
        raise NotPrimitive("matrix has no entrywise-positive power")
    k = len(rows)
    sparse = [([j for j, m in enumerate(row) if m], [m for m in row if m]) for row in rows]
    neg = [[-float(m) for m in row] for row in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    if len(set(col_sums)) == 1:
        theta = float(col_sums[0])
        right, left = _null_vector(neg, theta, [1.0] * k), [1.0] * k
    else:
        x = [1.0 / k] * k
        lo, hi = _collatz_wielandt(sparse, x)
        theta = hi
        for _ in range(_MAX_SHIFTS):
            if hi - lo <= 4 * ulp(hi):
                break
            y = _solve(_shifted(neg, theta, x))
            if y is None:  # theta is an eigenvalue, and the bracket holds no other
                x = _null_vector(neg, theta, [1.0] * k)
                break
            s = fsum(y)
            z = [v / s for v in y] if s else y
            bracket = _collatz_wielandt(sparse, z) if s else None
            if bracket and bracket[1] < hi:
                x, (lo, hi) = z, bracket
                theta = min(hi, max(lo, theta - 1 / s))
            elif theta < hi:  # the Newton shift overshot: retake it at x's upper bound
                theta = hi
            else:  # the upper bound lowers no further: the rounding floor
                break
        right = x
        left = None if right is None else _null_vector([list(col) for col in zip(*neg)], theta, right)
    if right is None or left is None:
        raise NoConvergence("singular Perron system")
    residual = max(abs(mr - theta * r) for mr, r in zip(_matvec(sparse, right), right))
    if residual > tol * max(1.0, theta):
        raise NoConvergence(f"Perron residual {residual:.3e} exceeds tol={tol}")
    if min(right) <= 0 or min(left) <= 0:
        raise NoConvergence("eigenvector failed strict positivity")
    return PerronData(theta, Vector(left), Vector(right), residual)


# Letters the sigma^j image table of `fixed_point_prefix` may hold: of
# 512..8192, 4096 built each measured class of prefix (CHANGES.md) within
# 1.3x of the fastest bound.
_POWER_LETTERS = 4096


def _check_fixed_point(sub: Substitution, length: int) -> None:
    if _integer("prefix length", length) < 1:
        raise ValueError("length must be positive")
    if not sub.is_fixed_point_capable:
        raise NotFixedPointCapable("image of 0 must start with 0 and grow")


def fixed_point_prefix(sub: Substitution, length: int) -> memoryview:
    """First `length` letters of the fixed point u at 0, as a read-only view
    of the built word with no copy.

    The word is `array` items of the narrowest type that holds the alphabet:
    "B" (one byte) for up to 256 letters, else the next wider one.  u is also
    the fixed point of every power sigma^j: the table of sigma^j images is
    squared while it holds at most _POWER_LETTERS letters, and then no letter
    of the prefix is expanded twice.
    """
    _check_fixed_point(sub, length)
    code = next(c for c in "BHILQ" if sub.alphabet_size <= 1 << 8 * array(c).itemsize)
    size = array(code).itemsize
    table = [array(code, img).tobytes() for img in sub.images]
    lens = [len(img) for img in table]  # in bytes, as are all lengths below

    def step(word: bytes) -> bytes:
        return b"".join(map(table.__getitem__, memoryview(word).cast(code)))

    while len(table[0]) < size * length:
        grown = [sum(map(lens.__getitem__, memoryview(img).cast(code))) for img in table]
        if sum(grown) > size * _POWER_LETTERS:
            break
        table, lens = [step(img) for img in table], grown
    word, done = table[0], 1
    while len(word) < size * length:
        need = size * length - len(word)
        # enough letters to reach `length` even if every image is the shortest
        chunk = word[size * done : size * (done - -need // min(lens))]
        ends = list(accumulate(map(lens.__getitem__, memoryview(chunk).cast(code))))
        chunk = chunk[: size * (bisect_left(ends, need) + 1)]
        word, done = word + step(chunk), done + len(chunk) // size
    return memoryview(word).cast(code)[:length]


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
    return tuple(map(int, tokens[0] if len(tokens) == 1 and alphabet_size <= 10 else tokens))


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
    pair = pair_substitution(sub)
    letters = _block_letters(pair)
    M = composition_matrix(sub)
    data = perron([[M[i][j] for j in letters] for i in letters], tol=tol)
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
    O(|blocks|) along B's functional graph: a cycle c0 -> ... -> c(L-1) -> c0
    closes by v(c0) = x / (1 - theta^-L), with x one pass round it from
    v(c0) = 0.  Every term is positive, so nothing cancels.
    NoConvergence is raised when ||(theta I - B) v - A f||_inf exceeds
    tol * max(1, theta) or v is not strictly positive.
    """
    n = len(pair)
    if n == 1:  # one block has frequency 1, also where theta = 1 makes theta I - B singular
        return dict.fromkeys(pair, 1.0)
    index = {b: i for i, b in enumerate(pair)}
    rhs = [0.0] * n
    for c, f in zip(_block_letters(pair), data.letter_freq, strict=True):
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
) -> tuple[dict[Block, float], RigidityConstant]:
    """The 2-block frequencies of `pair_substitution` (keys in block-alphabet
    order) and the rigidity constant, as the module docstring defines them, from
    `data`, the Perron data of M, whose left vector is the limit norms ||v(a)||_1."""
    freqs = _block_frequencies(sub, pair_substitution(sub), data, tol)
    diag = [freqs.get((a, a), 0.0) for a in range(sub.alphabet_size)]  # an absent (aa) has frequency 0
    r = max(diag)
    witness = next(a for a, x in enumerate(diag) if r - x <= tol * r)  # equal ones may differ in the last bits
    rho = float(data.left_vec[witness])
    return freqs, RigidityConstant(r, rho, r * rho, witness)


def rigidity_constant(sub: Substitution, tol: float = 1e-12) -> RigidityConstant:
    """`block_analysis`'s alpha = r * rho on the Perron data of M, where a non-primitive base fails."""
    return block_analysis(sub, perron(composition_matrix(sub), tol=tol), tol)[1]


def prefix_correlation(prefix: memoryview, block: Iterable[int], shift: int) -> float:
    """Fraction of prefix positions carrying `block` at both p and p+shift.

    At shift 0 it is the empirical frequency of the block itself.  `prefix`
    is a one-dimensional buffer of unsigned letters, such as the view
    `fixed_point_prefix` returns; a block letter no item holds counts 0.

    The scan runs on one int of 8 * width bits per letter.  For each byte
    lane of the items, `bytes.translate` sets bit j of a prefix byte when it
    equals that lane's byte of block letter j, for up to 7 offsets j at once;
    shifted by 8 * width * j + 8 * lane + j, these flags AND to bit 0 of item
    p's first byte where the block starts at p.  (Bits 1..7 of that byte end
    0: a group of c <= 7 offsets sets only flag bits 0..c-1, and bit b meets
    flag bit b of offset 0 when b >= c, flag bit c of offset c - b otherwise.)
    Items wider than a byte are also masked to their first byte.
    Occurrences ANDed with their own shift by 8 * width * shift are counted
    by `int.bit_count`.
    """
    block, shift = _as_word(block), _integer("shift", shift)
    if not block:
        raise ValueError("block must be nonempty")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    n = len(prefix)
    L = len(block)
    if n <= shift + L:
        raise PrefixTooShort(shift + L)
    view = memoryview(prefix)
    width, raw = view.itemsize, view.tobytes()
    if not all(0 <= s < 1 << 8 * width for s in block):
        return 0.0
    step = 8 * width
    occ = -1 if width == 1 else int.from_bytes((b"\1" + bytes(width - 1)) * n, "little")
    for o in range(0, L, 7):
        chunk = block[o : o + 7]
        for lane in range(width):
            marks = bytearray(256)
            for j, s in enumerate(chunk):
                marks[s >> 8 * lane & 255] |= 1 << j
            flags = int.from_bytes(raw.translate(marks), "little")
            for j in range(len(chunk)):
                occ &= flags >> step * (o + j) + 8 * lane + j
    limit = n - shift - L
    hits = occ & occ >> step * shift  # at p <= limit; p = limit is left out
    return (hits.bit_count() - (hits >> step * limit & 1)) / limit


def prefix_block_frequencies(sub: Substitution, prefix_len: int) -> dict[Block, float]:
    """Each 2-block (u[p], u[p+1]), p <= prefix_len - 3, of the fixed point u
    at 0 with its count over prefix_len - 2, as `prefix_correlation(
    fixed_point_prefix(sub, prefix_len), block, 0)` gives it, in block order; a
    block that does not occur has no key.  No prefix is built.

    With J the first level where |sigma^J(0)| >= n = prefix_len - 1, the
    Dumont-Thomas digits of n cut u[:n] into whole pieces sigma^i(y) (Dumont
    and Thomas, Theoret. Comput. Sci. 65, 1989).  The count is the junctions
    of consecutive pieces plus the blocks inside each piece, added level by
    level by Horner's rule on the pieces' letter counts, which needs only
    |sigma^i(a)| and the first and last letters of sigma^i(a) per level:
    O(J * sum |image(a)|) time and O(J * k + |blocks|) memory.
    """
    _check_fixed_point(sub, prefix_len)
    n = prefix_len - 1  # the blocks lie in u[:n]
    if n < 2:
        raise PrefixTooShort(2)
    images, k = sub.images, sub.alphabet_size
    heads, tails = [w[0] for w in images], [w[-1] for w in images]
    lens, firsts, lasts = [[1] * k], [list(range(k))], [list(range(k))]  # per level i and letter a
    while lens[-1][0] < n:
        ln, f, l = lens[-1], firsts[-1], lasts[-1]
        lens.append([sum(map(ln.__getitem__, w)) for w in images])
        firsts.append(list(map(f.__getitem__, heads)))
        lasts.append(list(map(l.__getitem__, tails)))
    neighbours = [(x, w, tuple(zip(w, w[1:]))) for x, w in enumerate(images)]
    counts: dict[int, int] = {}  # block (a, b) at a * k + b
    get = counts.get
    whole = [0] * k  # V: the letters x of the whole pieces sigma^(i+1)(x) kept so far
    a, rest, prev = 0, n, -1  # u[done:n] is the first `rest` letters of sigma^(i+1)(a); prev = u[done - 1]
    for i in range(len(lens) - 2, -1, -1):
        ln, f, l = lens[i], firsts[i], lasts[i]
        below = [0] * k
        for x, w, adj in neighbours:
            c = whole[x]
            if c:
                for y in w:
                    below[y] += c
                for y, z in adj:
                    b = l[y] * k + f[z]
                    counts[b] = get(b, 0) + c
        whole = below
        if rest:
            for y in images[a]:
                if ln[y] > rest:
                    break
                rest -= ln[y]
                whole[y] += 1
                if prev >= 0:
                    b = prev * k + f[y]
                    counts[b] = get(b, 0) + 1
                prev = l[y]
            a = y
    return {divmod(b, k): c / (n - 1) for b, c in sorted(counts.items())}


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
