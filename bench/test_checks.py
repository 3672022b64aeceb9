"""Tests for the benchmark's own checks and tracer.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each check must accept the library's true output and reject a corrupted
copy of it.
"""

import dataclasses
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
from schurquot import derivative, injection, schur, sympquot, tableaux  # noqa: E402
from schurquot.partitions import Partition, SkewShape  # noqa: E402


class OracleTests(unittest.TestCase):
    def test_jacobi_trudi_known_values(self):
        self.assertEqual(checks.jacobi_trudi((3, 2, 1), (1, 1, 2, 2)), 648)
        self.assertEqual(checks.jacobi_trudi((1, 1), (2, 3, 5)), 31)  # e2
        self.assertEqual(checks.jacobi_trudi((2,), (2, 3)), 19)  # h2

    def test_golden_gamma0(self):
        self.assertEqual(checks.s1_gamma0((1, 1)), Fraction(1, 2))
        self.assertEqual(checks.s1_gamma0((1, 2, 2)), Fraction(2, 9))
        self.assertEqual(checks.s1_gamma0((1, 1, 1, 1)), Fraction(5, 16))
        self.assertEqual(checks.su2_gamma0((1, 2)), Fraction(2, 9))
        self.assertEqual(checks.su2_gamma0((1, 1, 1)), Fraction(5, 16))

    def test_counts(self):
        self.assertEqual(checks.hook_content_dim((2, 1), 3), 8)
        self.assertEqual(checks.hook_content_dim((1, 1, 1, 1), 3), 0)
        # |(2,1)/1| pairs with |(1,1)/0| at 3 labels: 9 * 3 = 27
        self.assertEqual(checks.skew_row_strip_count((2, 1), 1, 3), 9)
        self.assertEqual(checks.skew_row_strip_count((1, 1), 0, 3), 3)
        for outer, d, nlabels in [((5, 4), 1, 5), ((4, 4), 2, 5), ((3, 2, 2), 2, 4)]:
            shape = SkewShape.row_strip(Partition(outer), d)
            self.assertEqual(
                checks.skew_row_strip_count(outer, d, nlabels), tableaux.count_ssyt(shape, nlabels)
            )


class CheckTests(unittest.TestCase):
    def test_search(self):
        for dim in (2, 4):
            rep = sympquot.coincidence_search(dim, schur.SchurContext())
            matches = [(w.weights, r.key) for w, r in rep.matches]
            table = {r.key: v for r, v in rep.su2_table}
            self.assertEqual(checks.check_search(dim, matches, table), [])
            self.assertTrue(checks.check_search(dim, matches[1:], table))  # a dropped match
            off = {k: v + Fraction(1, 10**9) for k, v in table.items()}
            self.assertTrue(checks.check_search(dim, matches, off))

    def test_dim4_brute_force(self):
        self.assertEqual(
            checks.dim4_brute_force({(1, 2): Fraction(2, 9)}), {((1, 2, 2), (1, 2))}
        )
        self.assertEqual(checks.dim4_brute_force({(1, 2): Fraction(1, 5)}), set())

    def test_injectivity(self):
        instance = ((2, 1), (1, 1), 3, 0, 1)
        rep = injection.verify_injectivity(Partition((2, 1)), Partition((1, 1)), 3, 0, 1)
        self.assertEqual(checks.check_injectivity(instance, rep, False), [])
        for delta in (-1, 1):
            bad = dataclasses.replace(rep, domain_size=rep.domain_size + delta)
            self.assertTrue(checks.check_injectivity(instance, bad, False))
        self.assertTrue(checks.check_injectivity(instance, dataclasses.replace(rep, injective=False), False))
        # Greedy is injective here, so a collision is missing.
        self.assertTrue(checks.check_injectivity(instance, rep, True))

    def test_derivative(self):
        rho, lam, nvars = Partition((2, 1)), Partition((1, 1)), 3
        coefficients = list(derivative.derivative_numerator(rho, lam, nvars).numerator.coefficients())
        args = ((2, 1), (1, 1), nvars)
        self.assertEqual(checks.check_derivative(*args, coefficients, True), [])
        positive = [-c for c in coefficients[:1]] + coefficients[1:]
        self.assertTrue(any("positive" in p for p in checks.check_derivative(*args, positive, True)))
        self.assertTrue(checks.check_derivative(*args, [], True))
        self.assertTrue(checks.check_derivative(*args, coefficients, False))
        self.assertTrue(checks.check_derivative(*args, coefficients + [-1], True))

    def test_gamma0(self):
        for weights in [(1, -2, 2), (3, -3, 1, 5, -7), (2, -1)]:
            w = sympquot.CircleWeights(weights)
            value, bound = sympquot.gamma0_s1(w).value, sympquot.s1_upper_bound(w)
            self.assertEqual(checks.check_s1(weights, value, bound), [])
            self.assertTrue(checks.check_s1(weights, value + Fraction(1, 10**9), bound))
            self.assertTrue(checks.check_s1(weights, value, bound + 1))
        for degrees in [(1, 2), (2, 2), (1, 1, 1, 1)]:
            rep = sympquot.SU2Rep(degrees)
            value, bound = sympquot.gamma0_su2(rep).value, sympquot.su2_lower_bound(rep)
            self.assertEqual(checks.check_su2(degrees, value, bound), [])
            self.assertTrue(checks.check_su2(degrees, value - Fraction(1, 10**9), bound))
            self.assertTrue(checks.check_su2(degrees, bound, bound))


class TracerTests(unittest.TestCase):
    def test_counts_and_restores(self):
        original = tableaux.enumerate_ssyt
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(schur.enumerate_ssyt, original)
            derivative.verify_quotient_rule(Partition((2, 1)), Partition((1,)), 3, schur.SchurContext())
        finally:
            t.uninstall()
        for module in (tableaux, schur, injection):
            self.assertIs(module.enumerate_ssyt, original)
        metrics = t.metrics(1.0, 0.75)
        self.assertEqual(metrics["derivative.derivative_numerator.calls"]["value"], 1)
        self.assertEqual(metrics["derivative.quotient_rule_numerator.calls"]["value"], 1)
        self.assertGreater(metrics["tableaux.enumerate_ssyt.tableaux"]["value"], 0)
        self.assertEqual(metrics["trace.overhead_s"]["value"], 0.25)

    def test_matches_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        names = [f"{layer}.{field}" for layer, field, _ in tracer.PER_LAYER]
        self.assertEqual([m["name"] for m in spec["per_layer"]], names)
        self.assertEqual(
            [m["unit"] for m in spec["per_layer"]], [u for _, _, u in tracer.PER_LAYER]
        )


if __name__ == "__main__":
    unittest.main()
