"""Output checks for the benchmark, computed apart from the library.

Every oracle here is stdlib-only and shares no code with `schurquot`:
Schur values come from the Jacobi-Trudi determinant in the complete
homogeneous polynomials h_k, which needs no division by weight
differences and so stays exact at tied weights; tableau counts come from
the hook-content formula summed over horizontal strips (Pieri).  Each
`check_*` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

# Coincidences at quotient dimensions 2, 4 and 6, as published: pairs of
# (signed circle weights, SU(2) degrees).
PAPER_MATCHES = {
    2: {((1, -1), (1, 1)), ((1, -1), (2,)), ((1, -3), (3,))},
    4: {((1, -2, 2), (1, 2))},
    6: {((1, -1, 1, 1), (1, 1, 1))},
}
# Recorded values for the low-dimensional SU(2) representations that the
# closed formula excludes.
PAPER_SU2_EXCEPTIONS = {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2), (3,): Fraction(1, 4)}


# -- independent oracles ---------------------------------------------------


def det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def jacobi_trudi(parts, point) -> Fraction:
    """s_parts(point) as det(h_{parts_i - i + j}), exact for any point."""
    parts = [p for p in parts if p]
    if len(parts) > len(point):
        return Fraction(0)
    if not parts:
        return Fraction(1)
    top = parts[0] + len(parts)
    h = [Fraction(1)] + [Fraction(0)] * top
    for x in point:
        for k in range(1, top + 1):
            h[k] += x * h[k - 1]
    size = len(parts)

    def entry(i, j):
        k = parts[i] - i + j
        return h[k] if k >= 0 else 0

    return det([[entry(i, j) for j in range(size)] for i in range(size)])


def hook_content_dim(parts, nlabels: int) -> int:
    """Number of SSYT of straight shape `parts` with labels 1..nlabels."""
    parts = [p for p in parts if p]
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    num = den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= nlabels + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den if num > 0 else 0


def skew_row_strip_count(outer, d: int, nlabels: int) -> int:
    """SSYT count of outer/(d): by Pieri, the sum of dim(mu) over mu with
    outer/mu a horizontal strip of d boxes."""
    outer = [p for p in outer if p]
    ranges = [
        range(outer[i + 1] if i + 1 < len(outer) else 0, outer[i] + 1)
        for i in range(len(outer))
    ]
    return sum(
        hook_content_dim(mu, nlabels)
        for mu in product(*ranges)
        if sum(outer) - sum(mu) == d
    )


def s1_gamma0(abs_weights) -> Fraction:
    """Circle coefficient s_(n-2,n-2,...,1,0)(a) / s_(n-1,...,0)(a)."""
    n = len(abs_weights)
    num = (n - 2,) + tuple(range(n - 2, -1, -1))
    den = tuple(range(n - 1, -1, -1))
    return jacobi_trudi(num, abs_weights) / jacobi_trudi(den, abs_weights)


def su2_doubled_weights(degrees) -> list[int]:
    weights = []
    for d in degrees:
        for w in range(d, 0, -2):
            weights += [w, w]
    return sorted(weights)


def su2_gamma0(degrees) -> Fraction:
    """SU(2) coefficient 8σ(s_ρ̂ + s_ρ̂')/s_δ at the doubled positive weights;
    the recorded value for the excluded representations."""
    key = tuple(sorted(degrees))
    if key in PAPER_SU2_EXCEPTIONS:
        return PAPER_SU2_EXCEPTIONS[key]
    a = su2_doubled_weights(key)
    c = len(a) // 2
    delta = tuple(range(2 * c - 1, -1, -1))
    rho_hat = (2 * c - 3, 2 * c - 3) + tuple(range(2 * c - 3, -1, -1))
    rho_hat_prime = (2 * c - 3, 2 * c - 4, 2 * c - 4) + tuple(range(2 * c - 4, -1, -1))
    sigma = 2 if all(d % 2 == 0 for d in key) else 1
    return (
        8 * sigma * (jacobi_trudi(rho_hat, a) + jacobi_trudi(rho_hat_prime, a))
        / jacobi_trudi(delta, a)
    )


def su2_bound(degrees) -> Fraction:
    """Lower bound 24σ / (D(D-2)(D+1)(D-1)^3), D the complex dimension."""
    big_d = len(degrees) + sum(degrees)
    sigma = 2 if all(d % 2 == 0 for d in degrees) else 1
    return Fraction(24 * sigma, big_d * (big_d - 2) * (big_d + 1) * (big_d - 1) ** 3)


def dim4_brute_force(table: dict) -> set:
    """Dimension-4 coincidences from the closed form e2/((a+b)(a+c)(b+c)),
    over all a <= b <= c inside the proved bound b + c <= 1/v."""
    cap = int(1 / min(table.values()))
    found = set()
    for c in range(1, cap):
        for b in range(1, min(c, cap - c) + 1):
            for a in range(1, b + 1):
                if gcd(a, b, c) != 1:
                    continue
                value = Fraction(a * b + a * c + b * c, (a + b) * (a + c) * (b + c))
                found |= {((a, b, c), key) for key, v in table.items() if v == value}
    return found


# -- checks ----------------------------------------------------------------


def check_search(dimension: int, matches, su2_table) -> list[str]:
    """`matches`: (signed weights, degrees) pairs; `su2_table`: degrees -> γ₀."""
    problems = []
    got = set(matches)
    if got != PAPER_MATCHES[dimension]:
        problems.append(f"dim {dimension}: matches {sorted(got)} differ from the paper's")
    for key, value in su2_table.items():
        if value != su2_gamma0(key):
            problems.append(f"dim {dimension}: SU(2) {key} value {value} is wrong")
    for weights, key in got:
        alphas = sorted(abs(w) for w in weights)
        if s1_gamma0(alphas) != su2_table.get(key):
            problems.append(f"dim {dimension}: match {weights} ~ {key} is not equal")
    if dimension == 4:
        brute = dim4_brute_force(su2_table)
        mine = {(tuple(sorted(abs(w) for w in weights)), key) for weights, key in got}
        if mine != brute:
            problems.append(f"dim 4: brute force gives {sorted(brute)}")
    return problems


def check_injectivity(instance, report, greedy_expected: bool) -> list[str]:
    """`instance` = (rho, lam, nlabels, d, e) as tuples and ints."""
    rho, lam, nlabels, d, e = instance
    problems = []
    if not report.ok:
        problems.append(f"{instance}: verifier reports a failed property")
    domain = skew_row_strip_count(rho, d, nlabels) * skew_row_strip_count(lam, e, nlabels)
    if report.domain_size != domain:
        problems.append(f"{instance}: domain size {report.domain_size} != {domain}")
    opposite = skew_row_strip_count(rho, e, nlabels) * skew_row_strip_count(lam, d, nlabels)
    if opposite < report.domain_size:
        problems.append(f"{instance}: codomain {opposite} smaller than the domain")
    if greedy_expected and (report.greedy_injective or report.greedy_collision is None):
        problems.append(f"{instance}: greedy collision not reported")
    return problems


def check_derivative(rho, lam, nvars: int, coefficients, oracle_agrees: bool) -> list[str]:
    """`coefficients` of the numerator of d/dx_N (s_lam/s_rho)."""
    problems = []
    tag = f"rho={rho} lam={lam} N={nvars}"
    if not oracle_agrees:
        problems.append(f"{tag}: numerator differs from the quotient rule")
    if not coefficients:
        problems.append(f"{tag}: numerator is zero")
    elif max(coefficients) > 0:
        problems.append(f"{tag}: positive coefficient {max(coefficients)}")
    # Euler's identity and symmetry: at (1,...,1) every partial of the
    # degree-(|lam|-|rho|) ratio equals (|lam|-|rho|)/N times its value.
    expected = Fraction(
        hook_content_dim(rho, nvars) * hook_content_dim(lam, nvars) * (sum(lam) - sum(rho)),
        nvars,
    )
    if sum(coefficients) != expected:
        problems.append(f"{tag}: value at (1,...,1) {sum(coefficients)} != {expected}")
    return problems


def check_s1(weights, value: Fraction, bound: Fraction) -> list[str]:
    alphas = sorted(abs(w) for w in weights)
    problems = []
    if value != s1_gamma0(alphas):
        problems.append(f"S1 {weights}: γ₀ {value} != Jacobi-Trudi {s1_gamma0(alphas)}")
    expected_bound = Fraction(1, alphas[-1] + alphas[-2])
    if bound != expected_bound:
        problems.append(f"S1 {weights}: bound {bound} != {expected_bound}")
    if value > expected_bound or (value == expected_bound) != (len(alphas) == 2):
        problems.append(f"S1 {weights}: γ₀ {value} breaks the bound {expected_bound}")
    return problems


def check_su2(degrees, value: Fraction, bound: Fraction) -> list[str]:
    problems = []
    if value != su2_gamma0(degrees):
        problems.append(f"SU2 {degrees}: γ₀ {value} != Jacobi-Trudi {su2_gamma0(degrees)}")
    if bound != su2_bound(degrees):
        problems.append(f"SU2 {degrees}: bound {bound} != {su2_bound(degrees)}")
    if not value > su2_bound(degrees):
        problems.append(f"SU2 {degrees}: γ₀ {value} not above the bound")
    return problems

