"""The benchmark's workloads.

A workload turns `--seed` into inputs once (`inputs`, timed as set-up)
and then yields the operations of one round (`round`).  Every round runs
the same operations on the same inputs, each with fresh library state,
so rounds are comparable and a run's failed share never depends on how
many rounds fit in it.  Library functions are looked up on their module
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator

import checks
from schurquot import derivative, injection, schur, sympquot
from schurquot.partitions import Partition


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _parts(p: Partition) -> tuple[int, ...]:
    return p.normalized_parts()


# -- search: the exhaustive coincidence search ------------------------------

SEARCH_DIMS = (2, 4, 6)


def search_inputs(seed: int):
    # The search space is fixed by the dimension; the seed changes nothing.
    return SEARCH_DIMS


def search_round(dims) -> Iterator[Op]:
    # One operation verifies the whole claim, dimension by dimension; the
    # sub-millisecond searches at dimensions 2 and 4 would be too short to
    # time on their own.
    def run():
        return [sympquot.coincidence_search(dim, schur.SchurContext()) for dim in dims]

    def check(reports):
        return [
            problem
            for dim, rep in zip(dims, reports)
            for problem in checks.check_search(
                dim,
                [(w.weights, r.key) for w, r in rep.matches],
                {r.key: v for r, v in rep.su2_table},
            )
        ]

    yield Op(run, check)


# -- inject: exhaustive verification of the swap injection φ ---------------

INJECT_SUITE = (6, 4)  # one_box_instances(max_cells, max_labels)
COUNTEREXAMPLE = (Partition((5, 4)), Partition((4, 4)), 5, 1, 2)


def inject_inputs(seed: int):
    """The suite's settings plus the counterexample, in a seeded order (so the
    small verifications are timed both before and after the large one), and
    five growth-order seeds per verification, derived from --seed; those are
    only used on pairs whose region growth had a choice to make."""
    rng = random.Random(seed)
    settings = [(inst, False) for inst in injection.one_box_instances(*INJECT_SUITE)]
    settings.append((COUNTEREXAMPLE, True))
    rng.shuffle(settings)
    return settings, tuple(range(5 * seed, 5 * seed + 5))


def inject_round(inputs) -> Iterator[Op]:
    settings, growth_seeds = inputs
    for setting, greedy in settings:
        options = {"compare_greedy": True} if greedy else {"seeds": growth_seeds}
        rho, lam, nlabels, d, e = setting
        plain = (_parts(rho), _parts(lam), nlabels, d, e)
        yield Op(
            lambda setting=setting, options=options: injection.verify_injectivity(*setting, **options),
            lambda rep, plain=plain, greedy=greedy: checks.check_injectivity(plain, rep, greedy),
        )


# -- deriv: the sign theorem for the derivative numerator ------------------

DERIV_MAX_BOXES = 7
DERIV_NVARS = (2, 3, 4)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def deriv_inputs(seed: int):
    """Every lam strictly inside rho with |rho| <= 7 and N in 2..4 covering
    both shapes, in an order shuffled by the seed (the order decides which
    Schur polynomials are cache hits within a round)."""
    instances = []
    for n in range(1, DERIV_MAX_BOXES + 1):
        for rp in _partitions(n, n):
            for m in range(n):
                for lp in _partitions(m, m):
                    if len(lp) > len(rp) or any(a > b for a, b in zip(lp, rp)):
                        continue
                    for nvars in DERIV_NVARS:
                        if nvars >= len(rp):
                            instances.append((rp, lp, nvars))
    random.Random(seed).shuffle(instances)
    return [(Partition(rp), Partition(lp), nvars) for rp, lp, nvars in instances]


def deriv_round(instances) -> Iterator[Op]:
    ctx = schur.SchurContext()
    for rho, lam, nvars in instances:

        def run(rho=rho, lam=lam, nvars=nvars):
            report = derivative.derivative_numerator(rho, lam, nvars, ctx)
            return report, derivative.verify_quotient_rule(rho, lam, nvars, ctx)

        yield Op(
            run,
            lambda out, rho=rho, lam=lam, nvars=nvars: checks.check_derivative(
                _parts(rho), _parts(lam), nvars, list(out[0].numerator.coefficients()), out[1]
            ),
        )


# -- gamma0: one-shot γ₀ queries, each paying a cold cache ------------------

# Circle queries per weight count n.  A cold n = 7 query costs seconds, the
# smaller ones milliseconds, so the median query is a small one; the order
# of all queries is shuffled so that the small ones are timed at many
# moments of the round rather than in one burst.
S1_QUERIES = {3: 10, 4: 10, 5: 10, 6: 10, 7: 2}
S1_MAX_WEIGHT = 12
SU2_DIMS = (6, 8, 10)


def _circle_weights(rng: random.Random, n: int, tied: bool) -> tuple[int, ...]:
    while True:
        alphas = [rng.randint(1, S1_MAX_WEIGHT) for _ in range(n)]
        if tied:
            alphas[1] = alphas[0]
        if gcd(*alphas) == 1:
            break
    signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
    rng.shuffle(signs)
    return tuple(s * a for s, a in zip(signs, alphas))


def gamma0_inputs(seed: int):
    """Seeded circle weight vectors, every second one with a tied weight,
    both signs present, and all SU(2) representations of SU2_DIMS, in a
    seeded order."""
    rng = random.Random(seed)
    circle = [
        sympquot.CircleWeights(_circle_weights(rng, n, tied=k % 2 == 0))
        for n, count in S1_QUERIES.items()
        for k in range(count)
    ]
    reps = [rep for m in SU2_DIMS for rep in sympquot.su2_reps_for_dimension(m)]
    queries = circle + reps
    rng.shuffle(queries)
    return queries


def gamma0_round(queries) -> Iterator[Op]:
    for q in queries:
        if isinstance(q, sympquot.CircleWeights):
            yield Op(
                lambda w=q: (
                    sympquot.gamma0_s1(w, schur.SchurContext()).value,
                    sympquot.s1_upper_bound(w),
                ),
                lambda out, w=q: checks.check_s1(w.weights, *out),
            )
        else:
            yield Op(
                lambda rep=q: (
                    sympquot.gamma0_su2(rep, schur.SchurContext()).value,
                    sympquot.su2_lower_bound(rep),
                ),
                lambda out, rep=q: checks.check_su2(rep.key, *out),
            )


WORKLOADS = {
    "search": (search_inputs, search_round),
    "inject": (inject_inputs, inject_round),
    "deriv": (deriv_inputs, deriv_round),
    "gamma0": (gamma0_inputs, gamma0_round),
}
