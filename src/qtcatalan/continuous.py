"""Continuous Dyck paths over exact rationals.

A continuous Dyck path of height n is a point of the area polytope

    A_n = {a : a_0 = 0, 0 <= a_{i+1} <= a_i + 1},

with the i-th north step of the path at x_i = i - a_i.  Bounce vectors live
in the polytope B_n = {b : b_0 = 0, b_i <= b_{i+1} <= b_i + 1}.  Everything
here is exact: statistics of rational inputs are rational outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from .discrete import (InvalidPathError, MDyckPath, _bounce_block, _check_size, _dinv_vector,
                       _show, _validate_area_vector)

__all__ = [
    "ContinuousPath",
    "BounceVector",
    "DegenerateInputError",
    "sc",
    "area",
    "dinv",
    "bounce_vector",
    "bounce",
    "area_vector_from_bounce",
    "transform_T",
    "jacobian_count",
    "sort_preimage_count",
    "from_m_dyck",
    "to_m_dyck",
    "normalized_m_stats",
]

Rational = Fraction | int

_M_STATS_LIMIT = 2**62  # normalized_m_stats needs m * n^2 below this (int64 bounce kernel)
_PREIMAGE_ORACLE_MAX = 9  # sort_preimage_count tries all (n - 1)! orders, so n - 1 <= this


class DegenerateInputError(ValueError):
    """Raised when a generic-point formula is evaluated at a degenerate point."""


def _as_fractions(values: Sequence[Rational]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class ContinuousPath:
    """A continuous Dyck path encoded by its rational area vector in A_n."""

    area_vector: tuple[Fraction, ...]

    def __init__(self, area_vector: Sequence[Rational]):
        av = _as_fractions(area_vector)
        _validate_area_vector(len(av), 1, av)  # A_n is the m = 1 polytope
        object.__setattr__(self, "area_vector", av)

    @property
    def n(self) -> int:
        return len(self.area_vector)


@dataclass(frozen=True)
class BounceVector:
    """A nondecreasing rational time vector in B_n."""

    b: tuple[Fraction, ...]

    def __init__(self, b: Sequence[Rational]):
        bv = _as_fractions(b)
        if not bv:
            raise ValueError("bounce vector must be nonempty")
        if bv[0] != 0:
            raise ValueError(f"b_0 = {_show(bv[0])}, must be 0")
        for i in range(len(bv) - 1):
            if not bv[i] <= bv[i + 1] <= bv[i] + 1:
                raise ValueError(f"b_{i} <= b_{i + 1} <= b_{i} + 1 violated: "
                                 f"b_{i + 1} = {_show(bv[i + 1])}, b_{i} = {_show(bv[i])}")
        object.__setattr__(self, "b", bv)


def sc(x: Rational) -> Fraction:
    """Continuous scoring kernel max(1 - |x|, 0)."""
    x = Fraction(x)
    return max(1 - abs(x), Fraction(0))


def area(p: ContinuousPath) -> Fraction:
    return sum(p.area_vector, start=Fraction(0))


def _over_lcm(values: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """The integers L v for the least common denominator L of the values, and L;
    sc(v - w) = max(L - |L v - L w|, 0) / L."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def dinv(p: ContinuousPath) -> Fraction:
    """sum_{i<j} sc(a_i - a_j), added in ints."""
    a, den = _over_lcm(p.area_vector)
    return Fraction(sum(max(den - abs(x - y), 0) for i, x in enumerate(a) for y in a[i + 1:]), den)


def bounce_vector(p: ContinuousPath) -> BounceVector:
    """Times of the north steps of the bounce parametrization of p.

    The parametrization moves east at a speed equal to the number of north
    steps taken in the trailing unit of time, and takes the j-th north step
    when it first stands at x_j = j - a_j.  With b_0, ..., b_{j-1} taken, the
    step taken at b_i has carried it min(t - b_i, 1) by time t, so it stands at

        R(t) = sum_{i<j} min(t - b_i, 1) = min_{k=0..j} (j - k) + sum_{i>=j-k} (t - b_i):

    b is nondecreasing, so the terms at 1 are a prefix i < j - k, and every
    other split gives a line lying no lower.  R(t) >= x_j exactly when every
    line is, and the line k >= 1 (slope k) reaches x_j at its root
    (sum_{i>=j-k} (1 + b_i) - a_j) / k, while the line k = 0 stands at
    j >= x_j.  So b_j, the first time with R(t) >= x_j, is the largest root:

        b_j = max_{k=1..j} (sum_{i>=j-k} (1 + b_i) - a_j) / k.

    It is never below b_{j-1}: R rises strictly before b_{j-1} + 1 (the step
    j - 1 still moves it) and R(b_{j-1}) = x_{j-1} <= x_j.  It is never above
    b_{j-1} + 1, where R = j, so the walk cannot stall.  The inequality is
    closed, so a step reached exactly when an older step leaves the window
    (t = b_i + 1, where two lines cross) is taken at that instant: the
    north-step-first tie rule, which pins the boundary b_j = b_i + 1 of B_n.

    root_{k+1} = (k root_k + 1 + b_{j-k-1}) / (k + 1) is a weighted mean of root_k
    and 1 + b_{j-k-1}, which does not rise with k, so the roots rise, then fall:
    the largest is root_k at the first k with 1 + b_{j-k-1} <= root_k.
    """
    av = p.area_vector
    b = [Fraction(0)]
    for j in range(1, p.n):
        root, k = 1 + b[-1] - av[j], 1  # the root of the line k = 1
        while k < j and (c := 1 + b[j - k - 1]) > root:  # root_{k+1} > root_k
            root, k = (k * root + c) / (k + 1), k + 1
        b.append(root)
    return BounceVector(b)


def bounce(p: ContinuousPath) -> Fraction:
    return sum(bounce_vector(p).b, start=Fraction(0))


def area_vector_from_bounce(bv: BounceVector) -> ContinuousPath:
    """The unique path with bounce vector bv: a_j = sum_{i<j} sc(b_j - b_i), added in ints."""
    b, den = _over_lcm(bv.b)
    return ContinuousPath([Fraction(sum(max(den - abs(x - y), 0) for y in b[:j]), den)
                           for j, x in enumerate(b)])


def transform_T(p: ContinuousPath) -> ContinuousPath:
    """Reinterpret the sorted area vector of p as a bounce vector.

    Sorting an A_n vector always lands in B_n (consecutive sorted gaps cannot
    exceed 1); this is validated rather than assumed.  The image satisfies
    dinv(p) = area(T(p)) and area(p) = bounce(T(p)).
    """
    sorted_av = tuple(sorted(p.area_vector))
    try:
        bv = BounceVector(sorted_av)
    except ValueError as exc:
        raise AssertionError(
            f"sorted area vector {sorted_av} left B_n: {exc}"
        ) from exc
    return area_vector_from_bounce(bv)


def _check_generic(bv: BounceVector) -> None:
    b = bv.b
    tail = b[1:]
    if len(set(tail)) != len(tail) or any(x == 0 for x in tail):
        raise DegenerateInputError("b_1, ..., b_{n-1} are not distinct and nonzero")
    for j in range(len(b)):
        for i in range(j):
            if b[j] - b[i] == 1:
                raise DegenerateInputError(f"b_{j} - b_{i} = 1")


def jacobian_count(bv: BounceVector) -> int:
    """Local multiplicity of the sort step of T at a generic bounce vector.

    Equals the product over j of the number of earlier coordinates within
    distance 1 of b_j, and agrees with sort_preimage_count at generic points.
    """
    _check_generic(bv)
    b = bv.b
    count = 1
    for j in range(1, len(b)):
        count *= sum(1 for i in range(j) if b[j] - b[i] < 1)
    return count


def sort_preimage_count(bv: BounceVector) -> int:
    """Brute-force oracle: permutations of (b_1, ..., b_{n-1}) that, prefixed
    with 0, satisfy the A_n inequalities."""
    _check_generic(bv)
    b = bv.b
    if len(b) - 1 > _PREIMAGE_ORACLE_MAX:
        raise ValueError(f"factorial oracle capped at n - 1 <= {_PREIMAGE_ORACLE_MAX}")
    count = 0
    for perm in permutations(b[1:]):
        prev = Fraction(0)
        for x in perm:
            if x > prev + 1:
                break
            prev = x
        else:
            count += 1
    return count


def from_m_dyck(p: MDyckPath) -> ContinuousPath:
    """Scale an m-Dyck path horizontally by 1/m."""
    return ContinuousPath([Fraction(a, p.m) for a in p.area_vector])


def to_m_dyck(p: ContinuousPath, m: int) -> MDyckPath:
    """Inverse of from_m_dyck; raises InvalidPathError unless p is 1/m-integral."""
    scaled = []
    for i, a in enumerate(p.area_vector):
        v = a * m
        if v.denominator != 1:
            raise InvalidPathError(f"a_{i} = {_show(a)} is not a multiple of 1/{_show(m)}")
        scaled.append(int(v))
    return MDyckPath(n=p.n, m=m, area_vector=tuple(scaled))


def normalized_m_stats(p: ContinuousPath, m: int) -> tuple[Fraction, Fraction, Fraction]:
    """(area, dinv, bounce) of the corresponding m-Dyck path, divided by m.

    Bounce comes from the int64 block kernel on a one-row block, which takes
    at most n steps whatever m is.  Its integers stay below about m * n^2, so
    m < 1 or m * n^2 >= _M_STATS_LIMIT is refused (ValueError), not overflowed.
    """
    _check_size(p.n, m)
    if m * p.n * p.n >= _M_STATS_LIMIT:
        raise ValueError("m * n^2 must be below 2^62")
    av = to_m_dyck(p, m).area_vector
    return (
        Fraction(sum(av), m),
        Fraction(_dinv_vector(av, m), m),
        Fraction(int(_bounce_block(np.array([av], dtype=np.int64), m)[0]), m),
    )
