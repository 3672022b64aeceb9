import random
from fractions import Fraction
from itertools import permutations

import pytest

from schurquot.partitions import Partition, SkewShape, partitions_of
from schurquot.polynomial import SparsePolynomial
from schurquot.schur import (
    DegeneratePointError,
    SchurContext,
    default_context,
    horizontal_strips,
    int_dets,
    reassemble_decomposition,
    schur_bialternant,
    schur_confluent,
    schur_poly,
    skew_decomposition,
    ssyt_count,
    staircase,
    weyl_dimension,
)
from schurquot.tableaux import count_ssyt


def test_staircase():
    assert staircase(4) == Partition((3, 2, 1, 0))
    assert staircase(1) == Partition((0,))


def test_ssyt_count_matches_enumeration():
    for n in range(6):
        for outer in partitions_of(n):
            for m in range(n + 1):
                for inner in partitions_of(m):
                    if not Partition(outer).contains(Partition(inner)):
                        continue
                    shape = SkewShape(Partition(outer), Partition(inner))
                    for nlabels in range(4):
                        assert ssyt_count(shape, nlabels) == count_ssyt(shape, nlabels), (
                            outer, inner, nlabels,
                        )
    assert ssyt_count(SkewShape.straight(Partition((6, 6))), 8) == 226512
    assert ssyt_count(SkewShape.row_strip(Partition((6, 5)), 1), 8) == 215424


def test_weyl_dimension_known_values():
    assert weyl_dimension(Partition((1,)), 3) == 3
    assert weyl_dimension(Partition((1, 1)), 3) == 3
    assert weyl_dimension(Partition((2, 1)), 3) == 8
    assert weyl_dimension(Partition((2, 2, 1, 0)), 4) == 20
    assert weyl_dimension(Partition((3, 2, 1, 0)), 4) == 64
    assert weyl_dimension(Partition((1, 1, 1)), 2) == 0


def test_elementary_and_complete_expansions():
    # s_(1) = x1 + x2 + x3; s_(1,1) = e2; s_(2) = h2
    assert schur_poly(Partition((1,)), 3) == SparsePolynomial(
        3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    )
    assert schur_poly(Partition((1, 1)), 3) == SparsePolynomial(
        3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    )
    assert schur_poly(Partition((2,)), 2) == SparsePolynomial(
        2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    )


def test_s21_on_three_variables():
    # Known: s_(2,1)(x1,x2,x3) has 8 monomials, x1x2x3 with coefficient 2.
    p = schur_poly(Partition((2, 1)), 3)
    assert sum(p.coefficients()) == 8
    assert p.coefficient((1, 1, 1)) == 2
    assert p.coefficient((2, 1, 0)) == 1


def test_schur_is_symmetric():
    p = schur_poly(Partition((3, 1)), 3)
    for i in range(1, 3):
        assert p.swap_variables(i, i + 1) == p


def test_too_few_variables_gives_zero():
    assert schur_poly(Partition((1, 1, 1)), 2).is_zero()


def test_eval_staircase_is_pair_product():
    ctx = SchurContext()
    point = (1, 1, 2, 2)
    expected = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            expected *= point[i] + point[j]
    assert ctx.eval_schur(staircase(4), point) == expected == 648
    assert ctx.eval_schur(staircase(0), ()) == 1  # the empty product


def test_eval_matches_expanded_polynomial():
    ctx = default_context()
    lam = Partition((2, 1))
    point = (Fraction(1, 2), Fraction(3), Fraction(2))
    assert ctx.eval_schur(lam, point) == schur_poly(lam, 3).evaluate(point)


def test_bialternant_agrees_with_combinatorial_definition():
    rng = random.Random(7)
    for parts in [(2, 1), (3,), (2, 2), (1, 1, 1)]:
        lam = Partition(parts)
        for nvars in range(max(2, lam.nrows), 5):
            poly = schur_poly(lam, nvars)
            for _ in range(5):
                point = []
                while len(set(point)) != nvars:
                    point = [
                        Fraction(rng.randint(1, 30), rng.randint(1, 6))
                        for _ in range(nvars)
                    ]
                assert schur_bialternant(lam, point) == poly.evaluate(point)


def test_bialternant_rejects_ties():
    with pytest.raises(DegeneratePointError):
        schur_bialternant(Partition((1,)), (1, 1))


def test_confluent_handles_ties_exactly():
    lam = Partition((2, 1))
    poly = schur_poly(lam, 4)
    for point in [(1, 1, 2, 3), (2, 2, 2, 5), (1, 1, 1, 1)]:
        assert schur_confluent(lam, point) == poly.evaluate(point)
    # Every shape with at most 6 boxes in at most 5 variables, at rational
    # points with ties, zeros and negative coordinates.
    rng = random.Random(3)
    values = [Fraction(v) for v in (0, 1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-5, 3)]
    checked = 0
    for size in range(7):
        for parts in partitions_of(size):
            lam = Partition(parts)
            for nvars in range(1, 6):
                poly = schur_poly(lam, nvars)
                points = [[rng.choice(values)] * nvars]
                for _ in range(3):
                    point = [rng.choice(values) for _ in range(nvars)]
                    point[rng.randrange(nvars)] = point[0]
                    points.append(point)
                    points.append([rng.choice(values) for _ in range(nvars)])
                for point in points:
                    assert schur_confluent(lam, point) == poly.evaluate(point), (lam, point)
                    checked += 1
    assert checked > 1000


def _permutation_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += -term if inversions % 2 else term
    return total


def test_int_dets_matches_permutation_expansion():
    rng = random.Random(11)
    for n in range(1, 6):
        for extra in (0, 1):
            for trial in range(24):
                m = [[rng.randint(-4, 4) for _ in range(n + extra)] for _ in range(n)]
                if trial % 4 == 1:
                    m[0][0] = 0  # zero leading pivot
                elif trial % 4 == 2:
                    m[-1] = list(m[0])  # repeated row (singular when n > 1)
                elif trial % 4 == 3:
                    for row in m:
                        row[0] = 0  # zero first column
                expected = [
                    _permutation_det([row[: n - 1] + [row[c]] for row in m])
                    for c in range(n - 1, n + extra)
                ]
                assert int_dets([list(row) for row in m]) == expected, m


def test_confluent_agrees_on_distinct_points():
    lam = Partition((3, 1))
    point = (Fraction(1, 2), 2, 3)
    assert schur_confluent(lam, point) == schur_bialternant(lam, point)


def test_horizontal_strips():
    strips = horizontal_strips(Partition((2, 1)), 1)
    assert set(strips) == {Partition((1, 1)), Partition((2, 0))}
    assert horizontal_strips(Partition((2, 1)), 0) == [Partition((2, 1))]
    # no two removed boxes may share a column
    for mu in horizontal_strips(Partition((3, 3)), 2):
        assert mu.part(1) >= 3  # row 2 of (3,3) interlaces: mu_1 >= rho_2


def test_pieri_strip_sum_equals_skew_schur():
    rho = Partition((3, 2))
    for d in range(rho.part(1) + 1):
        total = SparsePolynomial.zero(2)
        for mu in horizontal_strips(rho, d):
            total = total + schur_poly(mu, 2)
        assert total == schur_poly(SkewShape.row_strip(rho, d), 2)


def test_skew_decomposition_reassembles():
    for parts, nvars in [((3, 2, 1), 3), ((2, 2), 3), ((4, 1), 2)]:
        rho = Partition(parts)
        decomp = skew_decomposition(rho, nvars)
        assert [d for d, _ in decomp] == list(range(rho.part(1) + 1))
        assert reassemble_decomposition(decomp, nvars) == schur_poly(rho, nvars)


def test_context_memoization_returns_same_object():
    ctx = SchurContext()
    a = ctx.schur_poly(Partition((2, 1)), 3)
    b = ctx.schur_poly(Partition((2, 1)), 3)
    assert a is b
