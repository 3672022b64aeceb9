import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import schurquot
from schurquot.partitions import Partition
from schurquot.schur import schur_confluent
from schurquot.sympquot import (
    CircleWeights,
    LevelSetStats,
    SU2Rep,
    coincidence_search,
    gamma0_level_set,
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


def test_search_dimension_6():
    report = coincidence_search(6)
    matches = {(w.weights, rep.key) for w, rep in report.matches}
    assert matches == {((1, -1, 1, 1), (1, 1, 1))}
    data = report.to_dict()
    assert data["examined"] == sum(entry["evaluations"] for entry in data["stats"])
    assert data["pruned_count"] == sum(
        entry["pruned_below"] + entry["pruned_above"] for entry in data["stats"]
    )
    # The work of the three rules, pinned: (value, cap, evaluations, cut below, cut above).
    assert [
        (e["value"], e["cap"], e["evaluations"], e["pruned_below"], e["pruned_above"])
        for e in data["stats"]
    ] == [
        ("5/16", 3, 6, 0, 0),
        ("13/256", 19, 315, 7, 0),
        ("5/32", 6, 24, 3, 0),
        ("17/2304", 135, 83309, 43, 0),
    ]


def test_search_report_serialization(tmp_path):
    path = tmp_path / "dim4.json"
    report = coincidence_search(4, checkpoint=str(path))
    data = json.loads(path.read_text())
    assert data["dimension"] == 4
    assert data["matches"] == [{"weights": [1, -2, 2], "degrees": [1, 2]}]
    assert data["pruned_count"] == report.pruned


def test_search_rejects_odd_dimension():
    with pytest.raises(ValueError):
        coincidence_search(5)


def _gamma0_abs(alphas):
    """γ₀ of any positive weight vector, gcd > 1 included, as in gamma0_s1."""
    num, den = s1_shapes(len(alphas))
    return schur_confluent(num, alphas) / schur_confluent(den, alphas)


def _sorted_vectors(n, cap):
    """All sorted positive vectors of length n with α₍ₙ₋₁₎+α₍ₙ₎ <= cap."""
    return [
        alphas
        for alphas in combinations_with_replacement(range(1, cap), n)
        if alphas[-2] + alphas[-1] <= cap
    ]


def test_level_set_matches_brute_force():
    rng = random.Random(20261021)
    for n in (2, 3, 4):
        drawn = [tuple(sorted(rng.randint(1, 6) for _ in range(n))) for _ in range(5)]
        drawn += [(2, 2, 4, 6)[:n], (3, 3, 3, 3)[:n], (1, 1, 1, 2)[:n]]
        for alphas in drawn:
            value = _gamma0_abs(alphas)
            cap = value.denominator // value.numerator
            brute = [a for a in _sorted_vectors(n, cap) if _gamma0_abs(a) == value]
            stats = LevelSetStats()
            got = gamma0_level_set(n, value, stats)
            assert got == brute, (n, alphas)
            assert alphas in got
            assert stats.cap == cap and stats.evaluations > 0


def test_level_set_prunes_above():
    # Weights (1,1,1) give 3/8; with cap 2 that is the only completion of
    # the prefix (1), and it stays above the target.
    stats = LevelSetStats()
    assert gamma0_level_set(3, Fraction(1, 3) + Fraction(1, 10**6), stats) == []
    assert stats.pruned_above == 1 and stats.pruned_below == 0


def test_level_set_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma0_level_set(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        gamma0_level_set(3, Fraction(0))


def test_search_stats_per_target():
    data = coincidence_search(2).to_dict()
    assert [entry["degrees"] for entry in data["stats"]] == [[[1, 1], [2]], [[3]]]
    assert [entry["value"] for entry in data["stats"]] == ["1/2", "1/4"]
    assert [entry["cap"] for entry in data["stats"]] == [2, 4]
    # (1,3) and (2,2) give 1/4: one walk step each.
    assert [entry["evaluations"] for entry in data["stats"]] == [1, 2]


def test_import_leaves_out_process_pools():
    # A fresh interpreter imports the package from where this run found it.
    src = os.path.dirname(os.path.dirname(schurquot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, schurquot; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
