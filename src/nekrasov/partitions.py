"""Integer partitions, hook lengths, and the partition counting function."""

from __future__ import annotations

from typing import Iterator


class Partition:
    """A partition: weakly decreasing positive integer parts.

    The empty tuple is the unique partition of 0.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, part in enumerate(parts):
            if part < 1:
                raise ValueError(f"parts must be positive, got {part}")
            if i > 0 and parts[i - 1] < part:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts
        self.n = sum(parts)

    @classmethod
    def _trusted(cls, parts: tuple, n: int) -> "Partition":
        """A Partition of n from parts already known to be valid, unchecked."""
        p = object.__new__(cls)
        p.parts, p.n = parts, n
        return p

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        cols = [0] * (self.parts[0] if self.parts else 0)
        for part in self.parts:
            for j in range(part):
                cols[j] += 1
        return Partition._trusted(tuple(cols), self.n)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    Streams lazily; never materializes the full list.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Partition._trusted((), 0)
        return
    parts = [n]
    while True:
        yield Partition._trusted(tuple(parts), n)
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return
        rem = len(parts) - k
        parts[k] -= 1
        cap = parts[k]
        del parts[k + 1:]
        while rem > 0:
            c = min(cap, rem)
            parts.append(c)
            rem -= c


# Memo table for p(n): append-only and unlocked, since the package runs
# single-threaded (scan --jobs uses processes).
_p_memo: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < len(_p_memo):
        return _p_memo[n]
    while len(_p_memo) <= n:
        m = len(_p_memo)
        total = 0
        k = 1
        while True:
            g1 = m - k * (3 * k - 1) // 2
            if g1 < 0:
                break
            term = _p_memo[g1]
            g2 = m - k * (3 * k + 1) // 2
            if g2 >= 0:
                term += _p_memo[g2]
            total += term if k % 2 == 1 else -term
            k += 1
        _p_memo.append(total)
    return _p_memo[n]


def hook_lengths(p: Partition) -> list[int]:
    """Hook lengths of all cells of p, row by row.

    hook = arm + leg + 1; the multiset has exactly |p| elements.
    """
    conj = p.conjugate().parts
    hooks = []
    for i, row in enumerate(p.parts):
        for j in range(row):
            hooks.append((row - j) + (conj[j] - i) - 1)
    return hooks


def trivial_leg_hooks(p: Partition) -> list[int]:
    """Hook lengths of the cells with leg length 0.

    A cell (i, j) has leg 0 iff row i+1 is shorter than j+1, so row i
    contributes hooks 1..(parts[i] - parts[i+1]).
    """
    hooks = []
    parts = p.parts
    for i, row in enumerate(parts):
        below = parts[i + 1] if i + 1 < len(parts) else 0
        hooks.extend(range(1, row - below + 1))
    return hooks


def multiplicities(p: Partition) -> dict[int, int]:
    """Part multiplicities k_j = #{i : parts[i] = j}, as a sparse mapping.

    Only part sizes that occur are present; sum of j * k_j equals |p|.
    """
    mult: dict[int, int] = {}
    for part in p.parts:
        mult[part] = mult.get(part, 0) + 1
    return mult
