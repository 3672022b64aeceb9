"""Command-line entry point.

Subcommands: schur {expand, eval, decompose}, deriv {check, sweep},
inject {run, verify}, gamma0 {s1, su2}, bound {s1, su2}, search.

Exit codes: 0 success/verified, 1 an asserted mathematical property failed
to hold (implementation bug gate for CI), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from .derivative import derivative_numerator, numerator_for_variable, verify_quotient_rule
from .injection import (
    OneBoxSetting,
    enumerate_pairs,
    greedy_phi,
    one_box_instances,
    phi,
    spanning_tree_region,
    verify_injectivity,
)
from .partitions import Partition, SkewShape, partition_contains
from .polynomial import SparsePolynomial
from .schur import default_context, skew_decomposition, ssyt_count
from .sympquot import (
    CircleWeights,
    SU2Rep,
    coincidence_search,
    gamma0_s1,
    gamma0_su2,
    s1_upper_bound,
    su2_lower_bound,
)

SCHEMA_VERSION = 1
CHECKPOINT_DIR_ENV = "SCHURQUOT_CHECKPOINT_DIR"

MAX_CELLS_DEFAULT = 12
MAX_NVARS_DEFAULT = 8
MAX_SEEDS = 32
MAX_SEARCH_DIM = 10
# Input pairs of one `inject` instance; the (5,4)/(4,4) counterexample has 735,000.
MAX_PAIRS = 1_000_000


class UsageError(Exception):
    pass


def parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(
            f"bad partition {text!r}: expected comma-separated weakly decreasing "
            f"integers, e.g. --outer 3,2,1 ({exc})"
        )


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise UsageError(f"bad integer list {text!r}: expected e.g. 1,-2,2")


def parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise UsageError(f"bad point {text!r}: expected e.g. 1,2,5/3")


def parse_skew(outer_text: str, inner_text: str | None) -> SkewShape:
    outer = parse_partition(outer_text)
    if inner_text is None:
        return SkewShape.straight(outer)
    inner = parse_partition(inner_text)
    if inner.nrows <= 1:
        # A bare integer d means the first-row prefix removal outer/d.
        return SkewShape.row_strip(outer, inner.part(1))
    if not partition_contains(inner, outer):
        raise UsageError(f"inner {inner} not contained in outer {outer}")
    return SkewShape(outer, inner)


def emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, **report}, indent=2))
    else:
        for line in text_lines:
            print(line)


# Partition options, as (attribute, flag); each is at most MAX_CELLS_DEFAULT boxes.
PARTITION_OPTIONS = (
    ("outer", "--outer"),
    ("inner", "--inner"),
    ("rho", "--rho"),
    ("lam", "--lambda"),
)

# Every size parameter, as (attribute, flag, lowest, highest).
SIZE_LIMITS = (
    ("nvars", "--nvars", 1, MAX_NVARS_DEFAULT),
    ("nlabels", "--nlabels", 1, MAX_NVARS_DEFAULT),
    ("max_cells", "--max-cells", 1, MAX_CELLS_DEFAULT),
    ("max_boxes", "--max-boxes", 1, MAX_CELLS_DEFAULT),
    ("max_nvars", "--max-nvars", 2, MAX_NVARS_DEFAULT),
    ("max_labels", "--max-labels", 1, MAX_NVARS_DEFAULT),
    ("seeds", "--seeds", 1, MAX_SEEDS),
    ("dim", "--dim", 2, MAX_SEARCH_DIM),
)


def _check_limits(args) -> None:
    for attr, flag, lowest, highest in SIZE_LIMITS:
        value = getattr(args, attr, None)
        if value is not None and not (lowest <= value <= highest):
            raise UsageError(f"{flag} must be in {lowest}..{highest}")
    for attr, flag in PARTITION_OPTIONS:
        text = getattr(args, attr, None)
        if text is not None and parse_partition(text).size > MAX_CELLS_DEFAULT:
            raise UsageError(f"{flag} must have at most {MAX_CELLS_DEFAULT} boxes")
    if getattr(args, "dim", 0) % 2:
        raise UsageError("--dim must be even")
    point = getattr(args, "point", None)
    if point is not None and not (1 <= len(parse_point(point)) <= MAX_NVARS_DEFAULT):
        raise UsageError(f"--point must have 1..{MAX_NVARS_DEFAULT} coordinates")


# -- schur ------------------------------------------------------------


def cmd_schur_expand(args) -> int:
    shape = parse_skew(args.outer, args.inner)
    poly = default_context().schur_poly(shape, args.nvars)
    emit(
        {"shape": str(shape), **poly.to_dict()},
        args.format,
        [str(poly)],
    )
    return 0


def cmd_schur_eval(args) -> int:
    shape = parse_skew(args.outer, args.inner)
    point = parse_point(args.point)
    if shape.inner.size == 0:
        value = default_context().eval_schur(shape.outer, point)
    else:
        value = default_context().schur_poly(shape, len(point)).evaluate(point)
    emit(
        {"shape": str(shape), "point": [str(x) for x in point], "value": str(value)},
        args.format,
        [str(value)],
    )
    return 0


def cmd_schur_decompose(args) -> int:
    rho = parse_partition(args.outer)
    if args.nvars < 2:
        raise UsageError("decomposition needs --nvars >= 2")
    decomp = skew_decomposition(rho, args.nvars)
    emit(
        {
            "rho": list(rho.parts),
            "nvars": args.nvars,
            "layers": [{"d": d, **poly.to_dict()} for d, poly in decomp],
        },
        args.format,
        [f"d={d}: {poly}" for d, poly in decomp],
    )
    return 0


# -- deriv ------------------------------------------------------------


def cmd_deriv_check(args) -> int:
    rho = parse_partition(args.rho)
    lam = parse_partition(args.lam)
    if not partition_contains(lam, rho):
        raise UsageError(f"--lambda {lam} must be contained in --rho {rho}")
    report = derivative_numerator(rho, lam, args.nvars)
    numerator = report.numerator
    if args.var is not None:
        numerator = numerator_for_variable(rho, lam, args.nvars, args.var)
    payload = {
        "rho": list(rho.parts),
        "lambda": list(lam.parts),
        "nvars": args.nvars,
        "max_coefficient": report.max_coefficient,
        "term_count": report.term_count,
        "all_nonpositive": report.all_nonpositive,
    }
    if args.emit_numerator:
        payload["numerator"] = numerator.to_dict()
    lines = [
        f"max_coefficient: {report.max_coefficient}",
        f"term_count: {report.term_count}",
        f"all_nonpositive: {str(report.all_nonpositive).lower()}",
    ]
    if args.emit_numerator:
        lines.append(str(numerator))
    emit(payload, args.format, lines)
    return 0 if report.all_nonpositive else 1


def cmd_deriv_sweep(args) -> int:
    from .partitions import partitions_of

    failures = []
    checked = 0
    for n in range(1, args.max_boxes + 1):
        for rparts in partitions_of(n):
            rho = Partition(rparts)
            for m in range(n):
                for lparts in partitions_of(m):
                    lam = Partition(lparts)
                    if not partition_contains(lam, rho):
                        continue
                    for nvars in range(2, args.max_nvars + 1):
                        if nvars < max(rho.nrows, lam.nrows):
                            continue
                        checked += 1
                        report = derivative_numerator(rho, lam, nvars)
                        bad = (
                            not report.all_nonpositive
                            or report.numerator.is_zero()
                            or not verify_quotient_rule(rho, lam, nvars)
                        )
                        if bad:
                            failures.append(
                                {"rho": list(rho.parts), "lambda": list(lam.parts), "nvars": nvars}
                            )
    emit(
        {"checked": checked, "failures": failures},
        args.format,
        [f"checked: {checked}", f"failures: {len(failures)}"]
        + [f"  FAIL rho={f['rho']} lambda={f['lambda']} N={f['nvars']}" for f in failures],
    )
    return 0 if not failures else 1


# -- inject -----------------------------------------------------------


def _tableau_payload(t) -> dict:
    return t.to_dict()


def _pair_count(rho: Partition, lam: Partition, nlabels: int, d: int, e: int) -> int:
    """The number of input pairs of one instance, counted before enumerating."""
    try:
        setting = OneBoxSetting(rho, lam, d, e)
    except ValueError as exc:
        raise UsageError(str(exc))
    if d >= e:
        raise UsageError(f"the swap maps need --d < --e, got {d} and {e}")
    count = ssyt_count(setting.s_shape, nlabels) * ssyt_count(setting.t_shape, nlabels)
    if count > MAX_PAIRS:
        raise UsageError(f"{count} input pairs; at most {MAX_PAIRS} are allowed")
    return count


def cmd_inject_run(args) -> int:
    rho = parse_partition(args.rho)
    lam = parse_partition(args.lam)
    index = args.index
    count = _pair_count(rho, lam, args.nlabels, args.d, args.e)
    if not 0 <= index < count:
        raise UsageError(f"--index must be in 0..{count - 1} for this pair set")
    pair = next(islice(enumerate_pairs(rho, lam, args.nlabels, args.d, args.e), index, None))
    trace = spanning_tree_region(pair.s, pair.t, choice_seed=args.seed)
    out = phi(pair.s, pair.t)
    payload = {
        "rho": list(rho.parts),
        "lambda": list(lam.parts),
        "nlabels": args.nlabels,
        "d": args.d,
        "e": args.e,
        "input": {"s": _tableau_payload(pair.s), "t": _tableau_payload(pair.t)},
        "region": {
            "root": list(trace.final_region.root),
            "cells": [list(c) for c in trace.final_region.sorted_cells()],
        },
        "steps": [[list(b), list(c)] for b, c in trace.steps],
        "output": {"s": _tableau_payload(out.s), "t": _tableau_payload(out.t)},
    }
    lines = [
        f"region: {sorted(trace.final_region.cells)}",
        f"steps: {list(trace.steps)}",
    ]
    if args.trace:
        lines = (
            ["S:", pair.s.ascii(), "T:", pair.t.ascii()]
            + lines
            + ["S':", out.s.ascii(), "T':", out.t.ascii()]
        )
    emit(payload, args.format, lines)
    return 0


def cmd_inject_verify(args) -> int:
    seeds = tuple(range(args.seeds))
    if args.rho is not None:
        if args.lam is None or args.nlabels is None or args.d is None or args.e is None:
            raise UsageError("single-instance verify needs --rho --lambda --nlabels --d --e")
        instances = [
            (parse_partition(args.rho), parse_partition(args.lam), args.nlabels, args.d, args.e)
        ]
        _pair_count(*instances[0])
    else:
        instances = list(one_box_instances(args.max_cells, args.max_labels))
    all_ok = True
    results = []
    for rho, lam, nlabels, d, e in instances:
        report = verify_injectivity(
            rho, lam, nlabels, d, e, seeds=seeds, compare_greedy=args.compare_greedy
        )
        all_ok = all_ok and report.ok
        entry = {
            "rho": list(rho.parts),
            "lambda": list(lam.parts),
            "nlabels": nlabels,
            "d": d,
            "e": e,
            "domain_size": report.domain_size,
            "injective": report.injective,
            "monomials_preserved": report.monomials_preserved,
            "region_contained": report.region_contained,
            "seed_stable": report.seed_stable,
        }
        if args.compare_greedy:
            entry["greedy_injective"] = report.greedy_injective
            if report.greedy_collision is not None:
                (s1, t1), (s2, t2) = report.greedy_collision
                entry["greedy_collision"] = {
                    "first": {"s": s1.to_dict(), "t": t1.to_dict()},
                    "second": {"s": s2.to_dict(), "t": t2.to_dict()},
                }
        entry["stats"] = {"branched": report.branched}
        results.append(entry)
    lines = []
    for entry in results:
        head = (
            f"rho={entry['rho']} lambda={entry['lambda']} nlabels={entry['nlabels']} "
            f"d={entry['d']} e={entry['e']}: injective: {str(entry['injective']).lower()}"
        )
        if args.compare_greedy:
            head += f"; greedy-map injective: {str(entry['greedy_injective']).lower()}"
        lines.append(head)
        if args.compare_greedy and entry.get("greedy_collision"):
            lines.append("greedy collision pair:")
            lines.append(json.dumps(entry["greedy_collision"]))
    lines.append(f"instances: {len(results)}; all verified: {str(all_ok).lower()}")
    emit({"instances": results, "all_ok": all_ok}, args.format, lines)
    return 0 if all_ok else 1


# -- gamma0 / bound / search -----------------------------------------


def cmd_gamma0_s1(args) -> int:
    try:
        w = CircleWeights(parse_ints(args.weights))
    except ValueError as exc:
        raise UsageError(str(exc))
    result = gamma0_s1(w)
    emit(
        {"weights": list(w.weights), "gamma0": str(result.value), "source": result.source},
        args.format,
        [str(result.value)],
    )
    return 0


def cmd_gamma0_su2(args) -> int:
    try:
        rep = SU2Rep.of(*parse_ints(args.degrees))
        result = gamma0_su2(rep)
    except ValueError as exc:
        raise UsageError(str(exc))
    emit(
        {"degrees": list(rep.key), "gamma0": str(result.value), "source": result.source},
        args.format,
        [str(result.value)],
    )
    return 0


def cmd_bound_s1(args) -> int:
    try:
        w = CircleWeights(parse_ints(args.weights))
    except ValueError as exc:
        raise UsageError(str(exc))
    bound = s1_upper_bound(w)
    value = gamma0_s1(w).value
    holds = value <= bound
    emit(
        {
            "weights": list(w.weights),
            "gamma0": str(value),
            "upper_bound": str(bound),
            "holds": holds,
            "equality": value == bound,
        },
        args.format,
        [f"gamma0: {value}", f"upper bound: {bound}", f"holds: {str(holds).lower()}"],
    )
    return 0 if holds else 1


def cmd_bound_su2(args) -> int:
    try:
        rep = SU2Rep.of(*parse_ints(args.degrees))
        bound = su2_lower_bound(rep)
        value = gamma0_su2(rep).value
    except ValueError as exc:
        raise UsageError(str(exc))
    holds = value > bound
    emit(
        {
            "degrees": list(rep.key),
            "gamma0": str(value),
            "lower_bound": str(bound),
            "holds": holds,
        },
        args.format,
        [f"gamma0: {value}", f"lower bound: {bound}", f"holds: {str(holds).lower()}"],
    )
    return 0 if holds else 1


def cmd_search(args) -> int:
    checkpoint = args.checkpoint
    if checkpoint is None and os.environ.get(CHECKPOINT_DIR_ENV):
        checkpoint = os.path.join(
            os.environ[CHECKPOINT_DIR_ENV], f"search-dim{args.dim}.json"
        )
    report = coincidence_search(args.dim, checkpoint=checkpoint)
    payload = report.to_dict()
    lines = [
        f"dimension: {report.dimension}",
        f"su2 values: "
        + ", ".join(f"{list(rep.key)} -> {v}" for rep, v in report.su2_table),
    ]
    for w, rep in report.matches:
        lines.append(f"match: weights {list(w.weights)} <-> degrees {list(rep.key)}")
    if not report.matches:
        lines.append("matches: none")
    emit(payload, args.format, lines)
    return 0


# -- parser -----------------------------------------------------------


def _add_format(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurquot",
        description="Exact Schur-polynomial ratios, tableau swap maps, and "
        "symplectic-quotient invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schur = sub.add_parser("schur", help="Schur polynomial operations")
    schur_sub = schur.add_subparsers(dest="subcommand", required=True)

    p = schur_sub.add_parser("expand", help="expand a (skew) Schur polynomial")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")
    p.add_argument("--nvars", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_schur_expand)

    p = schur_sub.add_parser("eval", help="evaluate at an exact rational point")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")
    p.add_argument("--point", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_schur_eval)

    p = schur_sub.add_parser("decompose", help="last-variable skew decomposition")
    p.add_argument("--outer", required=True)
    p.add_argument("--nvars", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_schur_decompose)

    deriv = sub.add_parser("deriv", help="derivative-numerator checks")
    deriv_sub = deriv.add_subparsers(dest="subcommand", required=True)

    p = deriv_sub.add_parser("check", help="sign check for one pair of shapes")
    p.add_argument("--rho", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--var", type=int)
    p.add_argument("--emit-numerator", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_deriv_check)

    p = deriv_sub.add_parser("sweep", help="sign check over all contained pairs")
    p.add_argument("--max-boxes", type=int, default=5)
    p.add_argument("--max-nvars", type=int, default=4)
    _add_format(p)
    p.set_defaults(func=cmd_deriv_sweep)

    inject = sub.add_parser("inject", help="tableau swap maps")
    inject_sub = inject.add_subparsers(dest="subcommand", required=True)

    p = inject_sub.add_parser("run", help="run the swap on one input pair")
    p.add_argument("--rho", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nlabels", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--index", type=int, default=0, help="input pair, in enumeration order")
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_inject_run)

    p = inject_sub.add_parser("verify", help="exhaustive injectivity report")
    p.add_argument("--rho")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--nlabels", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--max-cells", type=int, default=8)
    p.add_argument("--max-labels", type=int, default=4)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--compare-greedy", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_inject_verify)

    gamma0 = sub.add_parser("gamma0", help="first Laurent coefficients")
    gamma0_sub = gamma0.add_subparsers(dest="subcommand", required=True)

    p = gamma0_sub.add_parser("s1", help="circle quotient")
    p.add_argument("--weights", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_gamma0_s1)

    p = gamma0_sub.add_parser("su2", help="SU(2) quotient")
    p.add_argument("--d", dest="degrees", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_gamma0_su2)

    bound = sub.add_parser("bound", help="proved bounds on the coefficients")
    bound_sub = bound.add_subparsers(dest="subcommand", required=True)

    p = bound_sub.add_parser("s1", help="upper bound for the circle family")
    p.add_argument("--weights", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_bound_s1)

    p = bound_sub.add_parser("su2", help="lower bound for the SU(2) family")
    p.add_argument("--d", dest="degrees", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_bound_su2)

    p = sub.add_parser("search", help="coincidence search between the families")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--checkpoint")
    _add_format(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
