"""Integer partitions and skew shapes.

Partitions are weakly decreasing tuples of nonnegative integers.  Trailing
zeros are allowed everywhere; equality and hashing ignore them.  Cell
positions are 1-based pairs (row, column), rows counted from the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(isinstance(p, int) for p in parts):
            raise ValueError(f"parts must be integers: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.normalized_parts() == other.normalized_parts()

    def __hash__(self):
        return hash(self.normalized_parts())

    def normalized_parts(self) -> tuple[int, ...]:
        parts = self.parts
        k = len(parts)
        while k > 0 and parts[k - 1] == 0:
            k -= 1
        return parts[:k]

    def normalized(self) -> "Partition":
        return Partition(self.normalized_parts())

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nrows(self) -> int:
        return len(self.normalized_parts())

    def part(self, i: int) -> int:
        """Part in row i (1-based); zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        if n < self.nrows:
            raise ValueError(f"cannot pad {self} to {n} rows")
        return self.normalized_parts() + (0,) * (n - self.nrows)

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment other ⊆ self."""
        return partition_contains(other, self)

    def removable_corners(self) -> list[int]:
        """Rows r such that removing one box from row r leaves a partition."""
        parts = self.normalized_parts()
        return [
            r
            for r in range(1, len(parts) + 1)
            if parts[r - 1] > (parts[r] if r < len(parts) else 0)
        ]

    def remove_box(self, row: int) -> "Partition":
        parts = list(self.normalized_parts())
        if not (1 <= row <= len(parts)):
            raise ValueError(f"no box to remove in row {row} of {self}")
        parts[row - 1] -= 1
        return Partition(parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partition_contains(lam: Partition, rho: Partition) -> bool:
    """True iff lam_i <= rho_i for all i (padding with zeros)."""
    n = max(len(lam.parts), len(rho.parts))
    lp = lam.parts + (0,) * (n - len(lam.parts))
    rp = rho.parts + (0,) * (n - len(rho.parts))
    return all(a <= b for a, b in zip(lp, rp))


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        if not partition_contains(self.inner, self.outer):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @classmethod
    def straight(cls, outer: Partition) -> "SkewShape":
        return cls(outer, Partition())

    @classmethod
    def row_strip(cls, outer: Partition, d: int) -> "SkewShape":
        """The shape outer/d: the first d boxes of row one removed."""
        if d < 0 or d > outer.part(1):
            raise ValueError(f"cannot remove {d} boxes from the first row of {outer}")
        return cls(outer, Partition((d,)) if d else Partition())

    def __eq__(self, other):
        if not isinstance(other, SkewShape):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All positions (i, j), row-major order."""
        out = []
        for i in range(1, self.outer.nrows + 1):
            for j in range(self.inner.part(i) + 1, self.outer.part(i) + 1):
                out.append((i, j))
        return tuple(out)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        i, j = cell
        return i >= 1 and self.inner.part(i) < j <= self.outer.part(i)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __str__(self):
        return f"{self.outer}/{self.inner}"


def one_box_chain(rho: Partition, lam: Partition) -> list[Partition]:
    """Partition chain mu^0 = rho, ..., mu^r = lam removing one box per step.

    The removal rule is deterministic: at each step, take the box away from
    the deepest row whose part still exceeds the target's.  Each intermediate
    step is automatically a valid partition under this rule.
    """
    if not partition_contains(lam, rho):
        raise ValueError(f"{lam} is not contained in {rho}")
    chain = [rho.normalized()]
    current = list(rho.normalized_parts())
    target = lam.padded(len(current)) if lam.nrows <= len(current) else None
    while sum(current) > lam.size:
        for r in range(len(current) - 1, -1, -1):
            if current[r] > target[r]:
                current[r] -= 1
                break
        chain.append(Partition(tuple(current)))
    return chain


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n (as tuples, decreasing), largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def one_box_pairs(max_boxes: int) -> Iterator[tuple[Partition, Partition, int]]:
    """All (rho, lam, r) with |rho| <= max_boxes and lam = rho minus a box in row r."""
    for n in range(1, max_boxes + 1):
        for parts in partitions_of(n):
            rho = Partition(parts)
            for r in rho.removable_corners():
                yield rho, rho.remove_box(r), r
