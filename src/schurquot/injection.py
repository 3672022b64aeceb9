"""The box-swapping maps between pairs of skew tableaux.

Setting: rho minus one box (in row r) gives lam; S has shape rho/d, T has
shape lam/e with d < e, entries at most N-1.  Swapping a suitable region U
of cells between S and T, anchored at the removed box (r, rho_r), yields a
pair of shapes rho/e and lam/d with the same label multiset.  The region
grown by repairing adjacency violations (the "spanning tree" closure)
makes the map injective; the cheaper greedy region does not, and the
counterexample pair is reproduced in the tests.

A convention used throughout: the first-row positions (1, j) with
d < j <= e carry a virtual entry 0 on the T side; an output box labeled 0
is simply missing from the skew shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter, le, lt
from typing import Callable, Iterator

from .partitions import Partition, SkewShape, partition_contains
from .tableaux import SkewTableau, enumerate_ssyt, monomial

Cell = tuple[int, int]

# Orientation codes of `OneBoxSetting.neighbors` seen from the other cell.
_FLIP = {0: 1, 1: 0, 2: 3, 3: 2}


@dataclass(frozen=True)
class SwapRegion:
    cells: frozenset
    root: Cell

    def __post_init__(self):
        if self.root not in self.cells:
            raise ValueError("root must belong to the region")

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)


@dataclass(frozen=True)
class SpanningTreeTrace:
    steps: tuple[tuple[Cell, Cell], ...]
    final_region: SwapRegion
    branched: bool = False


@dataclass(frozen=True)
class TableauPair:
    s: SkewTableau
    t: SkewTableau

    def __post_init__(self):
        if self.s.nlabels != self.t.nlabels:
            raise ValueError("both tableaux must share the label bound")

    def monomial(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(monomial(self.s), monomial(self.t)))


class OneBoxSetting:
    """Precomputed geometry for a fixed (rho, lam, d, e)."""

    def __init__(self, rho: Partition, lam: Partition, d: int, e: int):
        rho = rho.normalized()
        lam = lam.normalized()
        r = _one_box_row(rho, lam)
        if not (0 <= d <= rho.part(1) and 0 <= e <= lam.part(1)):
            raise ValueError(f"d={d}, e={e} out of range for {rho}, {lam}")
        self.rho, self.lam, self.d, self.e, self.r = rho, lam, d, e, r
        self.root: Cell = (r, rho.part(r))
        self.s_shape = SkewShape.row_strip(rho, d)
        self.t_shape = SkewShape.row_strip(lam, e)
        self.out_s_shape = SkewShape.row_strip(rho, e)
        self.out_t_shape = SkewShape.row_strip(lam, d)

        self.cells = self.s_shape.cells()
        self.index = {c: k for k, c in enumerate(self.cells)}
        self.root_idx = self.index[self.root]
        self.virtual = frozenset((1, j) for j in range(d + 1, e + 1))
        # Source index into cells(lam/e) for each ambient cell; -1 root, -2 virtual.
        t_index = {c: k for k, c in enumerate(self.t_shape.cells())}
        self.t_src = tuple(
            -1 if c == self.root else (-2 if c in self.virtual else t_index[c])
            for c in self.cells
        )
        # Adjacent in-shape neighbours with the orientation of (B=cell, C=nbr):
        # 0 C right, 1 C left, 2 C below, 3 C above.
        self.neighbors: list[list[tuple[int, int]]] = []
        for (i, j) in self.cells:
            nb = []
            for other, code in (((i, j + 1), 0), ((i, j - 1), 1), ((i + 1, j), 2), ((i - 1, j), 3)):
                k = self.index.get(other)
                if k is not None:
                    nb.append((k, code))
            self.neighbors.append(nb)
        # The same neighbours seen from the other cell: (C, code of B from C).
        self.inward = [[(c, _FLIP[code]) for c, code in nb] for nb in self.neighbors]
        # Row-major subset maps for building the outputs, and getters of the
        # right- and below-neighbour pairs inside each output shape.
        self.virtual_idx = frozenset(self.index[c] for c in self.virtual)
        self.out_s_idx = tuple(k for k, c in enumerate(self.cells) if c not in self.virtual)
        self.out_t_idx = tuple(k for k, c in enumerate(self.cells) if c != self.root)
        self.out_s_entries = _getter(self.out_s_idx)
        self.out_t_entries = _getter(self.out_t_idx)
        self.out_s_right, self.out_s_below = self._adjacent_pairs(self.out_s_idx)
        self.out_t_right, self.out_t_below = self._adjacent_pairs(self.out_t_idx)

    def _adjacent_pairs(self, idxs: tuple[int, ...]):
        """Getter pairs (see `_holds`) of the right and of the below
        neighbours inside the cells `idxs`."""
        inside = set(idxs)

        def side_pairs(side: int):
            pairs = [
                (b, c)
                for b in idxs
                for c, code in self.neighbors[b]
                if code == side and c in inside
            ]
            return _getter([b for b, _ in pairs]), _getter([c for _, c in pairs])

        return side_pairs(0), side_pairs(2)

    # -- raw-value core ------------------------------------------------

    def t_values(self, t_entries: tuple[int, ...]) -> tuple:
        """T's entries lifted to the rho/d ambient (0 virtual, None at root)."""
        return tuple(
            None if src == -1 else (0 if src == -2 else t_entries[src])
            for src in self.t_src
        )

    def _violates(self, b: int, c: int, code: int, s_vals, t_vals) -> bool:
        # After swapping, a cell in U shows its S entry on the S' side and
        # its T entry on the T' side; a cell outside U shows the opposite.
        # A T entry of 0 (virtual) or None (root) marks a box that does not
        # exist on the corresponding output side, hence no constraint there.
        tb, sb = t_vals[b], s_vals[b]
        sc, tc = s_vals[c], t_vals[c]
        sp_live = tb != 0
        tp_live = tc is not None and tc != 0
        if code == 0:
            fail_sp = sp_live and tb > sc
            fail_tp = tp_live and sb > tc
        elif code == 1:
            fail_sp = sp_live and sc > tb
            fail_tp = tp_live and tc > sb
        elif code == 2:
            fail_sp = sp_live and tb >= sc
            fail_tp = tp_live and sb >= tc
        else:
            fail_sp = sp_live and sc >= tb
            fail_tp = tp_live and tc >= sb
        return fail_sp or fail_tp

    def grow_region(
        self, s_vals: tuple[int, ...], t_vals: tuple, rng: random.Random | None = None
    ) -> tuple[frozenset, list[tuple[int, int]], bool]:
        """Spanning-tree closure; returns (region indices, steps, branched).

        Each step absorbs the smallest violating (B, C) pair, or with `rng`
        one drawn from the sorted pairs; indices follow the row-major cell
        order, so index order is cell order.
        """
        in_u = [False] * len(self.cells)
        in_u[self.root_idx] = True
        region = {self.root_idx}
        steps: list[tuple[int, int]] = []
        branched = False
        candidates: set[tuple[int, int]] = set()
        violates = self._violates

        def absorb(x: int):
            for y, _ in self.neighbors[x]:
                candidates.discard((x, y))
            for y, code in self.inward[x]:
                if not in_u[y] and violates(y, x, code, s_vals, t_vals):
                    candidates.add((y, x))

        absorb(self.root_idx)
        while candidates:
            if not branched:
                first = next(iter(candidates))[0]
                branched = any(b != first for b, _ in candidates)
            if rng is None:
                b, c = min(candidates)
            else:
                keys = sorted(candidates)
                b, c = keys[rng.randrange(len(keys))]
            steps.append((b, c))
            candidates.discard((b, c))
            in_u[b] = True
            region.add(b)
            absorb(b)
        return frozenset(region), steps, branched

    def greedy_indices(self, s_vals: tuple[int, ...], t_vals: tuple) -> frozenset:
        """Closure of S < T adjacent to the region, breadth first."""
        seen = {self.root_idx}
        frontier = [self.root_idx]
        while frontier:
            nxt = []
            for x in frontier:
                for y, _ in self.neighbors[x]:
                    if y not in seen and t_vals[y] is not None and s_vals[y] < t_vals[y]:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def swap_values(
        self, s_vals: tuple[int, ...], t_vals: tuple, region: frozenset
    ) -> tuple[tuple, tuple]:
        """Raw (S', T') entries over the rho/d ambient; T' omits the root."""
        sp = list(t_vals)
        tp = list(s_vals)
        for k in region:
            sp[k] = s_vals[k]
            tp[k] = t_vals[k]
        tp[self.root_idx] = None
        return tuple(sp), tuple(tp)

    def image_valid(self, sp: tuple, tp: tuple, nlabels: int) -> bool:
        """Whether `swap_values` output is a skew SSYT pair of shapes rho/e, lam/d.

        The checks of `SkewTableau` (labels in 1..nlabels) and of
        `tableaux.validate` (rows weak, columns strict), on raw values.
        """
        s_out, t_out = self.out_s_entries(sp), self.out_t_entries(tp)
        return (
            1 <= min(s_out) and max(s_out) <= nlabels
            and 1 <= min(t_out) and max(t_out) <= nlabels
            and _holds(le, sp, self.out_s_right)
            and _holds(lt, sp, self.out_s_below)
            and _holds(le, tp, self.out_t_right)
            and _holds(lt, tp, self.out_t_below)
        )

    def output_pair(
        self, s_vals: tuple[int, ...], t_vals: tuple, region: frozenset, nlabels: int
    ) -> TableauPair:
        if self.virtual_idx & region:
            raise ValueError("swap region escaped rho/e; output shapes undefined")
        sp, tp = self.swap_values(s_vals, t_vals, region)
        s_out = SkewTableau(self.out_s_shape, self.out_s_entries(sp), nlabels)
        t_out = SkewTableau(self.out_t_shape, self.out_t_entries(tp), nlabels)
        return TableauPair(s_out, t_out)

    def region_from_indices(self, idxs: frozenset) -> SwapRegion:
        return SwapRegion(frozenset(self.cells[k] for k in idxs), self.root)

    def indices_from_region(self, u: SwapRegion) -> frozenset:
        missing = [c for c in u.cells if c not in self.index]
        if missing:
            raise ValueError(f"region cells {missing} outside {self.s_shape}")
        return frozenset(self.index[c] for c in u.cells)


def _getter(idxs) -> Callable[[tuple], tuple]:
    """vals -> tuple(vals[k] for k in idxs), through `itemgetter`."""
    idxs = tuple(idxs)
    if len(idxs) == 1:
        return lambda vals, k=idxs[0]: (vals[k],)
    return itemgetter(*idxs) if idxs else lambda vals: ()


def _holds(op, vals: tuple, getters) -> bool:
    """op(vals[b], vals[c]) for every pair (b, c) the two getters pick out."""
    first, second = getters
    return all(map(op, first(vals), second(vals)))


def _one_box_row(rho: Partition, lam: Partition) -> int:
    if rho.size != lam.size + 1 or not partition_contains(lam, rho):
        raise ValueError(f"{lam} must be {rho} minus one box")
    rp = rho.normalized_parts()
    lp = lam.padded(len(rp))
    return next(i + 1 for i in range(len(rp)) if rp[i] != lp[i])


def _setting_for(s: SkewTableau, t: SkewTableau) -> OneBoxSetting:
    for shape in (s.shape, t.shape):
        if shape.inner.nrows > 1:
            raise ValueError("inner shapes must be first-row strips")
    return _shared_setting(
        s.shape.outer, t.shape.outer, s.shape.inner.part(1), t.shape.inner.part(1)
    )


@lru_cache(maxsize=64)
def _shared_setting(rho: Partition, lam: Partition, d: int, e: int) -> OneBoxSetting:
    # The per-pair maps (phi, greedy_phi, ...) share one read-only geometry
    # per setting instead of rebuilding it on every call.
    return OneBoxSetting(rho, lam, d, e)


def swap_pair(s: SkewTableau, t: SkewTableau, u: SwapRegion) -> tuple[dict, dict]:
    """Raw labeled diagrams (S'_U, T'_U) as cell -> entry maps.

    Virtual zeros are kept as explicit 0 entries; the diagrams may fail
    the skew SSYT requirements for an arbitrary region.
    """
    setting = _setting_for(s, t)
    if u.root != setting.root:
        raise ValueError(f"region root {u.root} is not the removed box {setting.root}")
    idxs = setting.indices_from_region(u)
    sp, tp = setting.swap_values(s.entries, setting.t_values(t.entries), idxs)
    sprime = {c: sp[k] for k, c in enumerate(setting.cells)}
    tprime = {c: tp[k] for k, c in enumerate(setting.cells) if tp[k] is not None}
    return sprime, tprime


def _require_swap_setting(s: SkewTableau, t: SkewTableau) -> OneBoxSetting:
    setting = _setting_for(s, t)
    if setting.d >= setting.e:
        raise ValueError(f"the swap maps need d < e, got d={setting.d}, e={setting.e}")
    return setting


def greedy_region(s: SkewTableau, t: SkewTableau) -> SwapRegion:
    setting = _require_swap_setting(s, t)
    idxs = setting.greedy_indices(s.entries, setting.t_values(t.entries))
    return setting.region_from_indices(idxs)


def spanning_tree_region(
    s: SkewTableau, t: SkewTableau, choice_seed: int | None = None
) -> SpanningTreeTrace:
    setting = _require_swap_setting(s, t)
    rng = random.Random(choice_seed) if choice_seed is not None else None
    idxs, steps, branched = setting.grow_region(
        s.entries, setting.t_values(t.entries), rng
    )
    return SpanningTreeTrace(
        steps=tuple((setting.cells[b], setting.cells[c]) for b, c in steps),
        final_region=setting.region_from_indices(idxs),
        branched=branched,
    )


def phi(s: SkewTableau, t: SkewTableau) -> TableauPair:
    """The injective swap using the spanning-tree region."""
    setting = _require_swap_setting(s, t)
    t_vals = setting.t_values(t.entries)
    idxs, _, _ = setting.grow_region(s.entries, t_vals)
    return setting.output_pair(s.entries, t_vals, idxs, s.nlabels)


def greedy_phi(s: SkewTableau, t: SkewTableau) -> TableauPair:
    """Same swap but with the greedy region; not injective in general."""
    setting = _require_swap_setting(s, t)
    t_vals = setting.t_values(t.entries)
    idxs = setting.greedy_indices(s.entries, t_vals)
    return setting.output_pair(s.entries, t_vals, idxs, s.nlabels)


def psi(s: SkewTableau, t: SkewTableau) -> TableauPair:
    """First-column swap for (d,e) = (0,1), N = n+1, no zero parts."""
    rho, lam = s.shape.outer, t.shape.outer
    n = rho.nrows
    if lam.nrows != n or any(p == 0 for p in rho.normalized_parts() + lam.normalized_parts()):
        raise ValueError("psi needs all parts of rho and lambda nonzero")
    if s.nlabels != n:
        raise ValueError(f"psi needs nlabels = n = {n}, got {s.nlabels}")
    if s.shape.inner.size != 0 or t.shape.inner != Partition((1,)):
        raise ValueError("psi expects shapes rho/0 and lambda/1")
    s_map, t_map = s.entry_map(), t.entry_map()
    sp = dict(s_map)
    del sp[(1, 1)]
    tp = dict(t_map)
    for i in range(2, n + 1):
        sp[(i, 1)] = t_map[(i, 1)]
        tp[(i, 1)] = s_map[(i, 1)]
    tp[(1, 1)] = s_map[(1, 1)]
    return TableauPair(
        SkewTableau.from_entries(SkewShape.row_strip(rho, 1), sp, s.nlabels),
        SkewTableau.from_entries(SkewShape.straight(lam), tp, t.nlabels),
    )


def psi_inverse(s: SkewTableau, t: SkewTableau) -> TableauPair:
    """The same column swap applied from the (1,0) side."""
    rho, lam = s.shape.outer, t.shape.outer
    n = rho.nrows
    s_map, t_map = s.entry_map(), t.entry_map()
    sp = dict(s_map)
    tp = dict(t_map)
    for i in range(2, n + 1):
        sp[(i, 1)] = t_map[(i, 1)]
        tp[(i, 1)] = s_map[(i, 1)]
    sp[(1, 1)] = t_map[(1, 1)]
    del tp[(1, 1)]
    return TableauPair(
        SkewTableau.from_entries(SkewShape.straight(rho), sp, s.nlabels),
        SkewTableau.from_entries(SkewShape.row_strip(lam, 1), tp, t.nlabels),
    )


def enumerate_pairs(
    rho: Partition, lam: Partition, nlabels: int, d: int, e: int
) -> Iterator[TableauPair]:
    """The set of pairs (S, T) with shapes rho/d and lam/e."""
    s_list = list(enumerate_ssyt(SkewShape.row_strip(rho, d), nlabels))
    t_list = list(enumerate_ssyt(SkewShape.row_strip(lam, e), nlabels))
    for s, t in product(s_list, t_list):
        yield TableauPair(s, t)


@dataclass
class InjectivityReport:
    domain_size: int = 0
    injective: bool = True
    collision: tuple | None = None
    monomials_preserved: bool = True
    region_contained: bool = True
    seed_stable: bool = True
    greedy_injective: bool = True
    greedy_collision: tuple | None = None
    branched: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.monomials_preserved
            and self.region_contained
            and self.seed_stable
        )


def verify_injectivity(
    rho: Partition,
    lam: Partition,
    nlabels: int,
    d: int,
    e: int,
    seeds: tuple[int, ...] = (),
    compare_greedy: bool = False,
) -> InjectivityReport:
    """Exhaustively check phi on the full pair set.

    Checks injectivity, membership of images in the (e,d) pair set,
    monomial preservation and U(S,T) ⊆ U* ⊆ rho/e.  Seed stability of the
    spanning-tree region is re-run with the given seeds whenever a
    construction actually had a choice to make (`branched` counts those
    pairs).  An image outside the (e,d) pair set counts as a failure of
    injectivity; the first colliding pairs are reported.

    Every check runs on the raw entry tuples of `swap_values`; `phi` and
    `greedy_phi` build the same images as tableau objects.
    """
    if d >= e:
        raise ValueError("need d < e")
    setting = OneBoxSetting(rho, lam, d, e)
    report = InjectivityReport()
    s_list = list(enumerate_ssyt(setting.s_shape, nlabels))
    t_list = list(enumerate_ssyt(setting.t_shape, nlabels))
    t_vals_list = [setting.t_values(t.entries) for t in t_list]
    # Label counts as one integer, the count of label v being its digit v in
    # base `base` (more than the cells of a pair); digit 0 counts entries 0.
    # Summed, these are the counts of a pair, so S and T are counted once.
    base = 2 * len(setting.cells) + 1
    count = [base**v for v in range(nlabels + 1)].__getitem__
    s_counts = [sum(map(count, s.entries)) for s in s_list]
    t_counts = [sum(map(count, t.entries)) for t in t_list]
    out_s_entries, out_t_entries = setting.out_s_entries, setting.out_t_entries
    virtual_idx = setting.virtual_idx
    grow, greedy = setting.grow_region, setting.greedy_indices
    swap, image_valid = setting.swap_values, setting.image_valid
    # Images map to the first pair id si * len(t_list) + ti that gave them.
    images: dict = {}
    greedy_images: dict = {}
    collision = greedy_collision = None
    for si, s in enumerate(s_list):
        s_vals = s.entries
        s_count = s_counts[si]
        for ti, t_vals in enumerate(t_vals_list):
            pair_id = si * len(t_list) + ti
            idxs, _, branched = grow(s_vals, t_vals)
            gidxs = greedy(s_vals, t_vals)
            if virtual_idx & idxs or not idxs <= gidxs:
                report.region_contained = False
            if branched:
                report.branched += 1
                for seed in seeds:
                    alt, _, _ = grow(s_vals, t_vals, random.Random(seed))
                    if alt != idxs:
                        report.seed_stable = False
                        break
            sp, tp = swap(s_vals, t_vals, idxs)
            first = images.setdefault(sp + tp, pair_id)
            if first != pair_id:
                report.injective = False
                collision = collision or (first, pair_id)
            if not image_valid(sp, tp, nlabels):
                report.injective = False
            out_count = sum(map(count, out_s_entries(sp))) + sum(map(count, out_t_entries(tp)))
            if out_count != s_count + t_counts[ti]:
                report.monomials_preserved = False
            if compare_greedy:
                gsp, gtp = swap(s_vals, t_vals, gidxs)
                first = greedy_images.setdefault(gsp + gtp, pair_id)
                if first != pair_id:
                    report.greedy_injective = False
                    greedy_collision = greedy_collision or (first, pair_id)
    report.domain_size = len(s_list) * len(t_list)

    def tableau_pairs(pair_ids):
        return pair_ids and tuple(
            (s_list[k // len(t_list)], t_list[k % len(t_list)]) for k in pair_ids
        )

    report.collision = tableau_pairs(collision)
    report.greedy_collision = tableau_pairs(greedy_collision)
    return report


def one_box_instances(max_cells: int, max_labels: int):
    """All (rho, lam, nlabels, d, e) with |rho| <= max_cells, d < e <= lam_1."""
    from .partitions import one_box_pairs

    for rho, lam, _ in one_box_pairs(max_cells):
        for e in range(1, lam.part(1) + 1):
            for d in range(e):
                for nlabels in range(1, max_labels + 1):
                    yield rho, lam, nlabels, d, e
