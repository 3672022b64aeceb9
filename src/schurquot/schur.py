"""Schur and skew Schur polynomials.

Two independent routes are provided: the combinatorial sum over tableaux
(the definition, kept as the reference) and the ratio of alternants.  Every
Schur value is evaluated along the second route, as confluent alternants
that stay exact at points with repeated coordinates, computed by one
fraction-free integer determinant routine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .partitions import Partition, SkewShape, partition_contains
from .polynomial import SparsePolynomial
from .tableaux import enumerate_ssyt, monomial


class DegeneratePointError(ValueError):
    """Raised when the plain bialternant is asked about a point with ties."""


def staircase(n: int) -> Partition:
    """The partition (n-1, n-2, ..., 1, 0)."""
    return Partition(tuple(range(n - 1, -1, -1)))


def weyl_dimension(lam: Partition, nvars: int) -> int:
    """Number of SSYTs of straight shape lam with nvars labels.

    Product formula over index pairs; used as an independent counting
    oracle for the tableau enumerator.
    """
    if lam.nrows > nvars:
        return 0
    parts = lam.padded(nvars)
    num = 1
    den = 1
    for i in range(nvars):
        for j in range(i + 1, nvars):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def ssyt_count(shape: SkewShape, nlabels: int) -> int:
    """Number of SSYTs of a skew shape with labels 1..nlabels, not enumerated.

    Jacobi-Trudi at 1^N: s_{lam/mu}(1^N) = det h_{lam_i - mu_j - i + j}(1^N),
    with h_k(1^N) = C(N + k - 1, k).
    """

    def h(k: int) -> int:
        return math.comb(nlabels + k - 1, k) if k > 0 else int(k == 0)

    outer, inner = shape.outer, shape.inner
    rows = range(1, outer.nrows + 1)
    [count] = int_dets([[h(outer.part(i) - inner.part(j) - i + j) for j in rows] for i in rows])
    return count


class SchurContext:
    """Memo cache for skew Schur polynomials."""

    def __init__(self):
        self._cache: dict[tuple[SkewShape, int], SparsePolynomial] = {}

    def schur_poly(self, shape: SkewShape | Partition, nvars: int) -> SparsePolynomial:
        if isinstance(shape, Partition):
            shape = SkewShape.straight(shape)
        key = (shape, nvars)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        terms: dict[tuple[int, ...], int] = {}
        for t in enumerate_ssyt(shape, nvars):
            exps = monomial(t)
            terms[exps] = terms.get(exps, 0) + 1
        poly = SparsePolynomial(nvars, terms)
        self._cache[key] = poly
        return poly

    def eval_schur(self, lam: Partition, point: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation of a straight-shape Schur polynomial.

        Goes through the confluent bialternant, which copes with repeated
        coordinates without any perturbation.
        """
        return schur_confluent(lam, point)


_DEFAULT_CONTEXT = SchurContext()


def default_context() -> SchurContext:
    return _DEFAULT_CONTEXT


def schur_poly(shape: SkewShape | Partition, nvars: int, ctx: SchurContext | None = None) -> SparsePolynomial:
    return (ctx or _DEFAULT_CONTEXT).schur_poly(shape, nvars)


def int_dets(m: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) elimination of an n x (n-1+k) integer matrix.

    Returns the k determinants det(A | c_j), where A is the first n-1
    columns and c_j is column n-1+j; a square matrix gives [det].  All k
    determinants share the elimination of A.  Destroys m.
    """
    n = len(m)
    if n == 0:
        return [1]
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return [0] * (width - n + 1)
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return [sign * x for x in m[n - 1][n - 1 :]]


def confluent_rows(point: Sequence[int], exps: Sequence[int]) -> list[list[int]]:
    """Rows of the confluent alternant of x -> x^e, e in exps, at point.

    Equal coordinates are grouped in order of first appearance.  The k-th
    repeat of a value v contributes the k-th derivative divided by k!, the
    row C(e, k) v^(e-k); on distinct coordinates these are the plain rows
    v^e.
    """
    mults: dict[int, int] = {}
    for v in point:
        mults[v] = mults.get(v, 0) + 1
    rows = []
    for v, mult in mults.items():
        rows.append([v**e for e in exps])
        for k in range(1, mult):
            rows.append([math.comb(e, k) * v ** (e - k) if e >= k else 0 for e in exps])
    return rows


def schur_confluent(lam: Partition, point: Sequence[Fraction | int]) -> Fraction:
    """Exact bialternant evaluation, also at points with repeated coordinates.

    Both alternants are confluent, so their ratio is the limit of the
    generic ratio and equals the Schur value.  Denominators are cleared
    first: with L the lcm of the coordinate denominators,
    s_lam(x) = a_{lam+delta}(Lx) / (a_delta(Lx) L^|lam|) by homogeneity,
    and both alternants are integer determinants.
    """
    nvars = len(point)
    if lam.nrows > nvars:
        return Fraction(0)
    point = [Fraction(x) for x in point]
    scale = math.lcm(*(x.denominator for x in point))
    ints = [x.numerator * (scale // x.denominator) for x in point]
    delta = range(nvars - 1, -1, -1)
    [num] = int_dets(confluent_rows(ints, [p + d for p, d in zip(lam.padded(nvars), delta)]))
    [den] = int_dets(confluent_rows(ints, delta))
    return Fraction(num, den * scale**lam.size)


def schur_bialternant(lam: Partition, point: Sequence[Fraction | int]) -> Fraction:
    """Ratio of alternants det(x_i^(lam_j + N - j)) / det(x_i^(N - j)).

    Requires pairwise-distinct coordinates; the denominator is the
    Vandermonde determinant and vanishes on ties.
    """
    if len(set(map(Fraction, point))) != len(point):
        raise DegeneratePointError(f"repeated coordinate in {list(point)}")
    return schur_confluent(lam, point)


def horizontal_strips(rho: Partition, d: int) -> list[Partition]:
    """All mu ⊆ rho with |rho| - |mu| = d and rho/mu a horizontal strip.

    A strip has no two cells in a column, equivalently mu interlaces rho:
    rho_{i+1} <= mu_i <= rho_i.
    """
    if d < 0 or d > rho.size:
        raise ValueError(f"strip length {d} out of range for {rho}")
    parts = rho.normalized_parts()
    n = len(parts)
    results: list[Partition] = []

    def build(i: int, prefix: list[int], remaining: int):
        if i == n:
            if remaining == 0:
                results.append(Partition(tuple(prefix)))
            return
        hi = parts[i]
        lo = parts[i + 1] if i + 1 < n else 0
        for mu_i in range(hi, lo - 1, -1):
            removed = hi - mu_i
            if removed > remaining:
                continue
            if prefix and mu_i > prefix[-1]:
                continue
            prefix.append(mu_i)
            build(i + 1, prefix, remaining - removed)
            prefix.pop()

    build(0, [], d)
    return results


def skew_decomposition(
    rho: Partition, nvars: int, ctx: SchurContext | None = None
) -> list[tuple[int, SparsePolynomial]]:
    """Pairs (d, s_{rho/d} in nvars-1 variables) for d = 0..rho_1.

    Reassembling sum_d x_N^d * s_{rho/d} reproduces s_rho on nvars
    variables exactly.
    """
    ctx = ctx or _DEFAULT_CONTEXT
    return [
        (d, ctx.schur_poly(SkewShape.row_strip(rho, d), nvars - 1))
        for d in range(rho.part(1) + 1)
    ]


def reassemble_decomposition(
    decomposition: list[tuple[int, SparsePolynomial]], nvars: int
) -> SparsePolynomial:
    total = SparsePolynomial.zero(nvars)
    for d, poly in decomposition:
        shift = (0,) * (nvars - 1) + (d,)
        total = total + poly.lift(nvars, shift)
    return total
