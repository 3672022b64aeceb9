"""First Laurent coefficients of symplectic-quotient Hilbert series.

For a faithful circle representation with nonzero weights of both signs
the coefficient is a ratio of two Schur polynomials of near-staircase
shape evaluated at the absolute weights; for SU(2) representations it is
a similar three-shape expression in the doubled positive weights.  All
arithmetic is exact rationals, and the coincidence search between the two
families relies on strict monotonicity in the weights for pruning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .partitions import Partition
from .schur import SchurContext, confluent_rows, default_context, int_dets

EXCEPTIONAL_SU2 = {(1,), (2,), (3,), (4,), (1, 1)}
# Values and quotient dimensions known for the excluded low-dimensional
# representations; everything else in the exceptional set fails loudly.
SU2_OVERRIDES = {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2), (3,): Fraction(1, 4)}
SU2_OVERRIDE_DIMENSIONS = {(1, 1): 2, (2,): 2, (3,): 2}


@dataclass(frozen=True)
class CircleWeights:
    weights: tuple[int, ...]

    def __post_init__(self):
        w = self.weights
        if not w:
            raise ValueError("weight vector must be nonempty")
        if any(a == 0 for a in w):
            raise ValueError("zero weights are not allowed")
        if all(a > 0 for a in w) or all(a < 0 for a in w):
            raise ValueError("weights of one sign give a trivial quotient")
        if gcd(*[abs(a) for a in w]) != 1:
            raise ValueError("weights must have gcd 1 (faithful representation)")

    @classmethod
    def from_abs(cls, alphas: Sequence[int]) -> "CircleWeights":
        """Canonical signed vector for a multiset of absolute weights."""
        signed = sorted(alphas)
        if len(signed) < 2:
            raise ValueError("need at least two absolute weights")
        signed[1] = -signed[1]
        return cls(tuple(signed))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def abs_weights(self) -> tuple[int, ...]:
        return tuple(sorted(abs(a) for a in self.weights))

    @property
    def quotient_dimension(self) -> int:
        return 2 * self.n - 2


@dataclass(frozen=True)
class SU2Rep:
    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive integers")

    @classmethod
    def of(cls, *degrees: int) -> "SU2Rep":
        return cls(tuple(sorted(degrees)))

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))

    @property
    def complex_dimension(self) -> int:
        return len(self.degrees) + sum(self.degrees)

    @property
    def even_count(self) -> int:
        return sum(1 for d in self.degrees if d % 2 == 0)

    @property
    def positive_weight_count(self) -> int:
        return (self.complex_dimension - self.even_count) // 2

    @property
    def sigma(self) -> int:
        return 2 if all(d % 2 == 0 for d in self.degrees) else 1

    @property
    def doubled_positive_weights(self) -> tuple[int, ...]:
        weights: list[int] = []
        for d in self.degrees:
            for w in range(d, 0, -2):
                weights.extend((w, w))
        weights.sort()
        assert len(weights) == 2 * self.positive_weight_count
        return tuple(weights)

    @property
    def is_exceptional(self) -> bool:
        return self.key in EXCEPTIONAL_SU2

    @property
    def quotient_dimension(self) -> int:
        if self.is_exceptional:
            try:
                return SU2_OVERRIDE_DIMENSIONS[self.key]
            except KeyError:
                raise ValueError(f"no recorded quotient dimension for {self.key}")
        return 2 * self.complex_dimension - 6


@dataclass(frozen=True)
class Gamma0Value:
    value: Fraction
    source: str  # "formula" | "override-table"
    group: str  # "S1" | "SU2"
    dimension: int


def s1_shapes(n: int) -> tuple[Partition, Partition]:
    """Numerator and denominator shapes for an n-weight circle quotient."""
    if n < 2:
        raise ValueError("need at least two weights")
    num = Partition((n - 2,) + tuple(range(n - 2, -1, -1)))
    den = Partition(tuple(range(n - 1, -1, -1)))
    return num, den


def gamma0_s1(w: CircleWeights, ctx: SchurContext | None = None) -> Gamma0Value:
    ctx = ctx or default_context()
    alphas = w.abs_weights
    num_shape, den_shape = s1_shapes(w.n)
    value = ctx.eval_schur(num_shape, alphas) / ctx.eval_schur(den_shape, alphas)
    return Gamma0Value(value, "formula", "S1", w.quotient_dimension)


def su2_shapes(c: int) -> tuple[Partition, Partition, Partition]:
    """The three shapes entering the SU(2) formula, for 2c positive weights."""
    if c < 2:
        raise ValueError("formula needs at least four doubled weights")
    delta = Partition(tuple(range(2 * c - 1, -1, -1)))
    rho_hat = Partition((2 * c - 3, 2 * c - 3) + tuple(range(2 * c - 3, -1, -1)))
    rho_hat_prime = Partition(
        (2 * c - 3, 2 * c - 4, 2 * c - 4) + tuple(range(2 * c - 4, -1, -1))
    )
    return rho_hat, rho_hat_prime, delta


def gamma0_su2(rep: SU2Rep, ctx: SchurContext | None = None) -> Gamma0Value:
    if rep.is_exceptional:
        try:
            value = SU2_OVERRIDES[rep.key]
        except KeyError:
            raise ValueError(
                f"representation {rep.key} is excluded from the formula and has "
                "no recorded value"
            )
        return Gamma0Value(value, "override-table", "SU2", rep.quotient_dimension)
    ctx = ctx or default_context()
    a = rep.doubled_positive_weights
    rho_hat, rho_hat_prime, delta = su2_shapes(rep.positive_weight_count)
    value = (
        8
        * rep.sigma
        * (ctx.eval_schur(rho_hat, a) + ctx.eval_schur(rho_hat_prime, a))
        / ctx.eval_schur(delta, a)
    )
    return Gamma0Value(value, "formula", "SU2", rep.quotient_dimension)


@dataclass(frozen=True)
class ComparisonResult:
    left: Fraction
    right: Fraction
    hypotheses_met: bool

    @property
    def strictly_greater(self) -> bool:
        return self.left > self.right


def s1_compare(a: CircleWeights, b: CircleWeights, ctx: SchurContext | None = None) -> ComparisonResult:
    """Monotonicity comparison: componentwise larger weights give a
    strictly smaller coefficient."""
    ctx = ctx or default_context()
    aa, bb = a.abs_weights, b.abs_weights
    hypotheses = (
        len(aa) == len(bb)
        and all(x <= y for x, y in zip(aa, bb))
        and any(x < y for x, y in zip(aa, bb))
    )
    return ComparisonResult(
        gamma0_s1(a, ctx).value, gamma0_s1(b, ctx).value, hypotheses
    )


def s1_upper_bound(w: CircleWeights) -> Fraction:
    """1 over the sum of the two largest absolute weights."""
    alphas = sorted(w.abs_weights)
    return Fraction(1, alphas[-1] + alphas[-2])


def su2_lower_bound(rep: SU2Rep) -> Fraction:
    if rep.is_exceptional:
        raise ValueError(f"bound does not apply to the excluded {rep.key}")
    big_d = rep.complex_dimension
    if big_d <= 2:
        raise ValueError("bound needs complex dimension at least 3")
    return Fraction(
        24 * rep.sigma, big_d * (big_d - 2) * (big_d + 1) * (big_d - 1) ** 3
    )


def su2_reps_for_dimension(m: int) -> list[SU2Rep]:
    """All SU(2) representations whose symplectic quotient has dimension m.

    Non-exceptional representations have quotient dimension 2D - 6; the
    excluded ones contribute through the recorded override dimensions.
    The two exceptional representations without recorded values (degree 1
    and degree 4) are omitted: nothing can be compared against them.
    """
    if m < 0 or m % 2:
        raise ValueError("quotient dimension must be even and nonnegative")
    reps = [
        SU2Rep(key)
        for key, dim in SU2_OVERRIDE_DIMENSIONS.items()
        if dim == m
    ]
    big_d = (m + 6) // 2

    def degree_tuples(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        # remaining = D - (number of parts already fixed) bookkeeping is done
        # by the caller; here: all decreasing tuples with sum+len == remaining.
        for first in range(min(remaining - 1, max_part), 0, -1):
            rest_budget = remaining - first - 1
            if rest_budget == 0:
                yield (first,)
            for rest in degree_tuples(rest_budget, first):
                yield (first,) + rest

    for degrees in degree_tuples(big_d, big_d):
        rep = SU2Rep(tuple(sorted(degrees)))
        if not rep.is_exceptional:
            reps.append(rep)
    return sorted(reps, key=lambda r: r.key)


@dataclass
class LevelSetStats:
    """The work of one `gamma0_level_set` call."""

    cap: int = 0
    evaluations: int = 0
    pruned_below: int = 0
    pruned_above: int = 0


def gamma0_level_set(
    n: int, value: Fraction, stats: LevelSetStats | None = None
) -> list[tuple[int, ...]]:
    """Every sorted vector of n positive absolute weights with γ₀ = value.

    Vectors with gcd > 1 are included; γ₀ is the circle coefficient of
    any signed vector with these absolute weights.  Solutions come in
    lexicographic order.  `stats`, if given, receives the cap, the number
    of γ₀ evaluations and the prefixes cut on either side.
    """
    if n < 2:
        raise ValueError("need at least two weights")
    value = Fraction(value)
    if value <= 0:
        raise ValueError("γ₀ is positive")
    if stats is None:
        stats = LevelSetStats()
    p, q = value.numerator, value.denominator
    # Two-largest-weights bound: γ₀ <= 1/(α₍ₙ₋₁₎+α₍ₙ₎), so every solution
    # has α₍ₙ₋₁₎+α₍ₙ₎ <= cap, and every weight but the last is <= cap // 2.
    cap = q // p
    half = cap // 2
    stats.cap = cap
    # γ₀ as two confluent alternants over the integers.  Their exponent
    # lists differ only in one column (2n-3 for the numerator shape, 2n-2
    # for the staircase), so one elimination yields both; the Vandermonde
    # factor of the bialternant cancels in the ratio.
    exps = [2 * (n - 1 - j) for j in range(1, n)] + [2 * n - 3, 2 * n - 2]

    def sign(point: list[int]) -> int:
        """The sign of γ₀(point) - value."""
        stats.evaluations += 1
        num, den = int_dets(confluent_rows(point, exps))
        if den < 0:
            num, den = -num, -den
        diff = num * q - p * den
        return (diff > 0) - (diff < 0)

    solutions: list[tuple[int, ...]] = []

    def extend(prefix: list[int], last: int) -> None:
        if len(prefix) == n - 2:
            walk(prefix, last)
            return
        after = n - 1 - len(prefix)  # weights after the next one
        for v in range(last, half + 1):
            # Monotonicity: the completion by v's has the largest γ₀ of
            # all completions, and it falls as v grows.
            if sign(prefix + [v] * (after + 1)) < 0:
                stats.pruned_below += 1
                break
            # Monotonicity and the cap: every completion is bounded by
            # middle weights cap // 2 and a last weight cap - v.
            if sign(prefix + [v] + [half] * (after - 1) + [cap - v]) > 0:
                stats.pruned_above += 1
                continue
            extend(prefix + [v], v)

    def walk(prefix: list[int], v: int) -> None:
        # Monotonicity: for the last two weights (v, x) the solution x(v),
        # where it exists, strictly decreases in v, so one pass moving v up
        # and x down meets every solution.
        x = cap - v
        while v <= x:
            s = sign(prefix + [v, x])
            if s == 0:
                solutions.append(tuple(prefix + [v, x]))
                v += 1
                x -= 1
            elif s > 0:
                v += 1
                x = min(x, cap - v)
            else:
                x -= 1

    extend([], 1)
    return solutions


@dataclass
class SearchReport:
    dimension: int
    su2_table: list[tuple[SU2Rep, Fraction]]
    matches: list[tuple[CircleWeights, SU2Rep]]
    # One entry per distinct SU(2) value: the representations sharing it,
    # the value and the work of its level-set search.
    stats: list[tuple[list[SU2Rep], Fraction, LevelSetStats]] = field(default_factory=list)

    @property
    def examined(self) -> int:
        """γ₀ evaluations over all targets."""
        return sum(s.evaluations for _, _, s in self.stats)

    @property
    def pruned(self) -> int:
        """Prefixes cut on either side, over all targets."""
        return sum(s.pruned_below + s.pruned_above for _, _, s in self.stats)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "su2_table": [
                {"degrees": list(rep.key), "gamma0": str(v)} for rep, v in self.su2_table
            ],
            "matches": [
                {"weights": list(w.weights), "degrees": list(rep.key)}
                for w, rep in self.matches
            ],
            "examined": self.examined,
            "pruned_count": self.pruned,
            "stats": [
                {
                    "degrees": [list(rep.key) for rep in reps],
                    "value": str(value),
                    "cap": s.cap,
                    "evaluations": s.evaluations,
                    "pruned_below": s.pruned_below,
                    "pruned_above": s.pruned_above,
                }
                for reps, value, s in self.stats
            ],
        }


def coincidence_search(
    dimension: int,
    ctx: SchurContext | None = None,
    checkpoint: str | None = None,
) -> SearchReport:
    """All circle weight vectors whose coefficient equals some SU(2) value
    of the same quotient dimension.

    Runs `gamma0_level_set` once per distinct SU(2) value and keeps the
    solutions with gcd 1, the faithful circle representations.
    """
    if dimension < 2 or dimension % 2:
        raise ValueError("dimension must be an even integer >= 2")
    ctx = ctx or default_context()
    table = [(rep, gamma0_su2(rep, ctx).value) for rep in su2_reps_for_dimension(dimension)]
    report = SearchReport(dimension, table, [])
    n = dimension // 2 + 1
    targets: dict[Fraction, list[SU2Rep]] = {}
    for rep, val in table:
        targets.setdefault(val, []).append(rep)
    for val, reps in targets.items():
        stats = LevelSetStats()
        for alphas in gamma0_level_set(n, val, stats):
            if gcd(*alphas) == 1:
                w = CircleWeights.from_abs(alphas)
                report.matches.extend((w, rep) for rep in reps)
        report.stats.append((reps, val, stats))
    report.matches.sort(key=lambda m: (m[0].abs_weights, m[1].key))
    if checkpoint:
        with open(checkpoint, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return report
