"""m-Dyck paths and their integer statistics.

An m-Dyck path of height n runs from (0,0) to (m*n, n) in unit north/east
steps and never goes strictly below the line y = x/m.  Paths are represented
canonically by their area vector (a_0, ..., a_{n-1}), where a_i counts the
complete lattice boxes between the path and the diagonal in row i.  The
north step in row i then sits at x-coordinate i*m - a_i, which is how the
lattice picture is reconstructed whenever a simulation needs it.

Enumeration and the dinv and bounce statistics also come as int64 numpy
kernels over blocks of area vectors, which the polynomial constructions use;
the scalar versions are their exact oracle.  The bounce kernel does not walk
the bounce path run by run: for each north step in turn it finds the run
that picks the step up, in closed form, so it takes n - 1 steps whatever m is.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MDyckPath",
    "BouncePathM",
    "BudgetExceededError",
    "InvalidPathError",
    "catalan_number_m",
    "enumerate_m_dyck",
    "area_m",
    "sc_m",
    "dinv_m",
    "bounce_path_m",
    "bounce_m",
    "phi_m",
]

_BLOCK_ROWS = 1 << 10  # most rows of one enumeration block (bounds peak memory)


class InvalidPathError(ValueError):
    """Raised when an area vector violates the m-Dyck path constraints, or
    (with m = 1) those of the continuous area polytope A_n."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the caller's path budget."""


@dataclass(frozen=True)
class MDyckPath:
    """An m-Dyck path of height n, encoded by its integer area vector."""

    n: int
    m: int
    area_vector: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "area_vector", tuple(self.area_vector))
        _validate_area_vector(self.n, self.m, self.area_vector)


@dataclass(frozen=True)
class BouncePathM:
    """Vertical/horizontal run lengths of the bounce path of an m-Dyck path."""

    v: tuple[int, ...]
    h: tuple[int, ...]


def _show(x: object) -> str:
    """x for an error message, or only its size past 64 bits: Python will not
    format an integer of more than 4300 digits, and a message stays short."""
    bits = max(abs(getattr(x, "numerator", 0)), getattr(x, "denominator", 1)).bit_length()
    return str(x) if bits <= 64 else f"<a {bits}-bit number>"


def _validate_area_vector(n: int, m: int, av: Sequence[int]) -> None:
    _check_size(n, m)
    if len(av) != n:
        raise InvalidPathError(f"area vector has length {len(av)}, expected {_show(n)}")
    if av[0] != 0:
        raise InvalidPathError(f"a_0 = {_show(av[0])}, must be 0")
    for i in range(n - 1):
        if not 0 <= av[i + 1] <= av[i] + m:
            raise InvalidPathError(
                f"0 <= a_{i + 1} <= a_{i} + m violated: a_{i + 1} = {_show(av[i + 1])}, "
                f"a_{i} = {_show(av[i])}, m = {_show(m)}"
            )


def catalan_number_m(n: int, m: int) -> int:
    """Higher Catalan number binom((m+1)n, n) / (mn + 1), exactly."""
    num = math.comb((m + 1) * n, n)
    q, r = divmod(num, m * n + 1)
    assert r == 0, "higher Catalan formula must divide exactly"
    return q


def _check_size(n: int, m: int, budget: int | None = None) -> int | None:
    """Reject n < 1, m < 1 or a negative budget (ValueError), and more than
    ``budget`` paths (BudgetExceededError); return the path count if it was
    counted.  As C^(m)_n >= C_n >= 2^(n-1), n - 1 > budget.bit_length() is
    refused without counting.  Every enumeration passes through here before
    doing any work.  Messages never format n or m, and show the budget with
    _show, as any of them may have more digits than Python will format."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if budget is None:
        return None
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if n - 1 <= budget.bit_length():
        total = catalan_number_m(n, m)
        if total <= budget:
            return total
    raise BudgetExceededError(f"path budget exceeded: C^(m)_n has more than {_show(budget)} paths")


def enumerate_m_dyck(n: int, m: int, budget: int | None = None) -> Iterator[MDyckPath]:
    """Yield every m-Dyck path of height n, lexicographically by area vector.

    Raises BudgetExceededError up front when the total count exceeds
    ``budget``.
    """
    _check_size(n, m, budget)
    for block in _area_vector_blocks(n, m):
        for av in block.tolist():
            path = MDyckPath.__new__(MDyckPath)
            object.__setattr__(path, "n", n)
            object.__setattr__(path, "m", m)
            object.__setattr__(path, "area_vector", tuple(av))
            yield path


def _area_vector_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """Every area vector of height n, lexicographically, as int64 blocks of
    at most _BLOCK_ROWS rows.

    A block of prefixes grows one coordinate at a time: row p has the
    children p + (a,) for a = 0, ..., p[-1] + m, numbered in parent order.
    The children are made _BLOCK_ROWS numbers at a time (each number finds
    its parent by np.searchsorted on the running child counts), and each
    such block is grown depth first, which keeps the lexicographic order.
    """
    def grow(prefixes: np.ndarray) -> Iterator[np.ndarray]:
        if prefixes.shape[1] == n:
            yield prefixes
            return
        ends = np.cumsum(prefixes[:, -1] + m + 1)
        for start in range(0, int(ends[-1]), _BLOCK_ROWS):
            child = np.arange(start, min(start + _BLOCK_ROWS, int(ends[-1])))
            parent = np.searchsorted(ends, child, side="right")
            first = np.concatenate(([0], ends[:-1]))[parent]
            yield from grow(np.column_stack((prefixes[parent], child - first)))

    return grow(np.zeros((1, 1), dtype=np.int64))


def area_m(p: MDyckPath) -> int:
    return sum(p.area_vector)


def sc_m(p: int, m: int) -> int:
    """Scoring kernel for the discrete dinv statistic."""
    if 1 <= p <= m:
        return m + 1 - p
    if -m <= p <= 0:
        return m + p
    return 0


def dinv_m(p: MDyckPath) -> int:
    return _dinv_vector(p.area_vector, p.m)


def _dinv_vector(av: Sequence[int], m: int) -> int:
    return sum(sc_m(x - y, m) for x, y in itertools.combinations(av, 2))


def _dinv_block(block: np.ndarray, m: int) -> np.ndarray:
    """dinv of every row of an int64 block of area vectors, with the closed
    form sc_m(d) = max(0, 2m + 1 - |2d - 1|) // 2 (the maximum is even)."""
    pairs = np.array(list(itertools.combinations(range(block.shape[1]), 2)), dtype=np.intp)
    pairs = pairs.reshape(-1, 2)  # i < j; also when n = 1
    d = block[:, pairs[:, 0]] - block[:, pairs[:, 1]]
    return np.maximum(2 * m + 1 - np.abs(2 * d - 1), 0).sum(axis=1) // 2


def bounce_path_m(p: MDyckPath) -> BouncePathM:
    """Simulate the bounce path of p on the integer lattice.

    From (0,0) the bounce path runs north until it hits an east step of p
    (the top edge y = n also terminates a run), then east by the sum of its
    last m vertical runs, and repeats until it reaches (m*n, n).
    """
    v, h = _bounce_runs(sorted(p.m * i - a for i, a in enumerate(p.area_vector)), p.m)
    return BouncePathM(v=tuple(v), h=tuple(h))


def _bounce_runs(cols: Sequence, m: int) -> tuple[list[int], list[int]]:
    """Bounce runs (v, h) over sorted integer north-step columns."""
    n = len(cols)
    v: list[int] = []
    h: list[int] = []
    r = 0  # horizontal position
    y = 0  # height
    step = 0  # sum of the last m vertical runs
    while r < m * n:
        height = bisect.bisect_right(cols, r)
        v.append(height - y)
        y = height
        step += v[-1] - (v[-m - 1] if len(v) > m else 0)
        if step == 0:
            raise InvalidPathError("bounce path stalled; area vector is invalid")
        h.append(step)
        r += step
    return v, h


def _bounce_stat(av: Sequence[int], m: int) -> int:
    v, _ = _bounce_runs(sorted(m * i - a for i, a in enumerate(av)), m)
    return sum(i * vi for i, vi in enumerate(v))


def _bounce_block(block: np.ndarray, m: int) -> np.ndarray:
    """bounce of every row of an int64 block of valid area vectors: the walk
    of _bounce_runs, one pickup run per north step.

    The north-step columns c_i = m * i - a_i are nondecreasing, as
    a_{i+1} <= a_i + m.  Let k_i be the run that picks up step i (the first
    run whose position reaches c_i); then bounce = sum_i k_i.  For
    k >= k_{i-1}, run k stands at r_k = sum_{j<i} min(k - k_j, m), the least
    of the lines m * l + sum_{l<=j<i} (k - k_j) for l = 0, ..., i - 1, so
    k_0 = 0 and k_i = max_l ceil((c_i - m * l + sum_{l<=j<i} k_j) / (i - l)).
    That is never below k_{i-1}: if p is the first step with k_p = k_{i-1} > 0,
    run k_{i-1} - 1 fell short of c_p <= c_i, and at that run every line
    through l < p lies lower for i steps than for p.  Every intermediate is at
    most about m * n^2, as sum_i k_i is the bounce.
    """
    rows, n = block.shape
    cols = m * np.arange(n) - block
    k = np.zeros((rows, n), dtype=np.int64)
    for i in range(1, n):
        j = np.arange(i)  # the lines l = 0, ..., i - 1
        later = np.cumsum(k[:, i - 1::-1], axis=1)[:, ::-1]  # k_l + ... + k_{i-1}
        need = cols[:, i:i + 1] - m * j + later
        k[:, i] = (-(-need // (i - j))).max(axis=1)
    return k.sum(axis=1)


def bounce_m(p: MDyckPath) -> int:
    return _bounce_stat(p.area_vector, p.m)


def phi_m(p: MDyckPath) -> MDyckPath:
    """The dinv-to-area bijection on m-Dyck paths.

    The image path is read off the area vector of p: in phase i, scanning the
    vector left to right, each symbol equal to i contributes a north step and
    each symbol in {i-m, ..., i-1} contributes an east step.  Concatenating
    the phases (trailing east steps implicit) gives the north-step columns of
    the image, whose bounce path has vertical runs v_i = #occurrences of i.

    Satisfies dinv_m(p) = area_m(phi_m(p)) and area_m(p) = bounce_m(phi_m(p)).
    """
    av = p.area_vector
    n, m = p.n, p.m
    top = max(av)
    cols: list[int] = []
    east = 0
    for i in range(top + 1):
        for a in av:
            if a == i:
                cols.append(east)
            elif i - m <= a <= i - 1:
                east += 1
    image = tuple(m * r - cols[r] for r in range(n))
    try:
        return MDyckPath(n=n, m=m, area_vector=image)
    except InvalidPathError as exc:  # pragma: no cover - indicates a bug
        raise AssertionError(f"phi_m produced an invalid path: {exc}") from exc
