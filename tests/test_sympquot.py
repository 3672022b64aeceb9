import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from schurquot.partitions import Partition
from schurquot.sympquot import (
    CircleWeights,
    SU2Rep,
    coincidence_search,
    gamma0_s1,
    gamma0_su2,
    s1_compare,
    s1_shapes,
    s1_upper_bound,
    su2_lower_bound,
    su2_reps_for_dimension,
    su2_shapes,
)


def test_circle_weights_validation():
    CircleWeights((1, -2, 2))
    with pytest.raises(ValueError):
        CircleWeights((1, 0, -1))
    with pytest.raises(ValueError):
        CircleWeights((1, 2, 3))  # one sign only
    with pytest.raises(ValueError):
        CircleWeights((2, -4))  # gcd 2
    with pytest.raises(ValueError):
        CircleWeights(())
    with pytest.raises(ValueError):
        CircleWeights.from_abs([3])


def test_circle_weights_canonical_form():
    w = CircleWeights.from_abs((2, 1, 2))
    assert w.weights == (1, -2, 2)
    assert w.abs_weights == (1, 2, 2)
    assert w.quotient_dimension == 4


def test_s1_shapes():
    num, den = s1_shapes(4)
    assert num == Partition((2, 2, 1, 0))
    assert den == Partition((3, 2, 1, 0))
    num2, den2 = s1_shapes(2)
    assert num2 == Partition((0, 0))
    assert den2 == Partition((1, 0))


def test_gamma0_s1_golden_values():
    assert gamma0_s1(CircleWeights((1, -1))).value == Fraction(1, 2)
    assert gamma0_s1(CircleWeights((1, -3))).value == Fraction(1, 4)
    assert gamma0_s1(CircleWeights((1, -2, 2))).value == Fraction(2, 9)
    assert gamma0_s1(CircleWeights((1, -1, 1, -1))).value == Fraction(5, 16)


def test_gamma0_s1_two_weights_closed_form():
    # with two weights the value is exactly 1/(a+b)
    for a, b in [(1, 2), (3, 4), (2, 5)]:
        if math.gcd(a, b) != 1:
            continue
        assert gamma0_s1(CircleWeights((a, -b))).value == Fraction(1, a + b)


def test_su2_rep_properties():
    rep = SU2Rep.of(1, 2)
    assert rep.complex_dimension == 5
    assert rep.even_count == 1
    assert rep.positive_weight_count == 2
    assert rep.sigma == 1
    assert rep.doubled_positive_weights == (1, 1, 2, 2)
    assert SU2Rep.of(2, 2).sigma == 2
    with pytest.raises(ValueError):
        SU2Rep.of(0)


def test_su2_shapes():
    rho_hat, rho_hat_prime, delta = su2_shapes(2)
    assert delta == Partition((3, 2, 1, 0))
    assert rho_hat == Partition((1, 1, 1, 0))
    assert rho_hat_prime == Partition((1, 0, 0, 0))


def test_gamma0_su2_golden_values():
    assert gamma0_su2(SU2Rep.of(1, 2)).value == Fraction(2, 9)
    assert gamma0_su2(SU2Rep.of(1, 1, 1)).value == Fraction(5, 16)
    assert gamma0_su2(SU2Rep.of(1, 2)).source == "formula"


def test_gamma0_su2_override_table():
    assert gamma0_su2(SU2Rep.of(1, 1)).value == Fraction(1, 2)
    assert gamma0_su2(SU2Rep.of(2)).value == Fraction(1, 2)
    assert gamma0_su2(SU2Rep.of(3)).value == Fraction(1, 4)
    assert gamma0_su2(SU2Rep.of(3)).source == "override-table"


def test_gamma0_su2_unrecorded_exceptions_fail_loudly():
    with pytest.raises(ValueError):
        gamma0_su2(SU2Rep.of(1))
    with pytest.raises(ValueError):
        gamma0_su2(SU2Rep.of(4))


def test_quotient_dimensions():
    assert SU2Rep.of(1, 2).quotient_dimension == 4
    assert SU2Rep.of(1, 1, 1).quotient_dimension == 6
    assert SU2Rep.of(2).quotient_dimension == 2  # recorded, not 2D-6
    assert CircleWeights((1, -2, 2)).quotient_dimension == 4


def test_su2_reps_for_dimension():
    keys = lambda m: [r.key for r in su2_reps_for_dimension(m)]
    assert keys(2) == [(1, 1), (2,), (3,)]
    assert keys(4) == [(1, 2)]
    assert keys(6) == [(1, 1, 1), (1, 3), (2, 2), (5,)]
    assert keys(8) == [(1, 1, 2), (1, 4), (2, 3), (6,)]
    with pytest.raises(ValueError):
        su2_reps_for_dimension(3)


def test_s1_upper_bound_family():
    # holds for all canonical weight vectors with n <= 4, entries <= 6;
    # equality exactly when n = 2
    for n in range(2, 5):
        for alphas in combinations_with_replacement(range(1, 7), n):
            if math.gcd(*alphas) != 1:
                continue
            w = CircleWeights.from_abs(alphas)
            value = gamma0_s1(w).value
            bound = s1_upper_bound(w)
            assert value <= bound, alphas
            assert (value == bound) == (n == 2), alphas


def test_su2_lower_bound_family():
    # strict for every non-exceptional degree vector with D <= 8
    def degree_vectors(max_dim):
        for total in range(2, max_dim + 1):
            for k in range(1, total):
                for degrees in combinations_with_replacement(range(1, total), k):
                    if sum(degrees) + k == total:
                        yield degrees

    checked = 0
    for degrees in degree_vectors(8):
        rep = SU2Rep(tuple(sorted(degrees)))
        if rep.is_exceptional:
            continue
        assert gamma0_su2(rep).value > su2_lower_bound(rep), degrees
        checked += 1
    assert checked > 10


def test_su2_lower_bound_rejects_exceptional():
    with pytest.raises(ValueError):
        su2_lower_bound(SU2Rep.of(2))


def test_monotonicity_comparison():
    a = CircleWeights((1, -2, 2))
    b = CircleWeights((1, -2, 3))
    result = s1_compare(a, b)
    assert result.hypotheses_met
    assert result.strictly_greater  # larger weights give a smaller value
    same = s1_compare(a, a)
    assert not same.hypotheses_met
    assert same.left == same.right


def test_search_dimension_2():
    report = coincidence_search(2)
    matches = {(w.weights, rep.key) for w, rep in report.matches}
    assert matches == {
        ((1, -1), (1, 1)),
        ((1, -1), (2,)),
        ((1, -3), (3,)),
    }


def test_search_dimension_4():
    report = coincidence_search(4)
    matches = {(w.weights, rep.key) for w, rep in report.matches}
    assert matches == {((1, -2, 2), (1, 2))}
    assert report.pruned > 0


def test_search_report_serialization(tmp_path):
    path = tmp_path / "dim4.json"
    report = coincidence_search(4, checkpoint=str(path))
    import json

    data = json.loads(path.read_text())
    assert data["dimension"] == 4
    assert data["matches"] == [{"weights": [1, -2, 2], "degrees": [1, 2]}]
    assert data["pruned_count"] == report.pruned


def test_search_rejects_odd_dimension():
    with pytest.raises(ValueError):
        coincidence_search(5)
