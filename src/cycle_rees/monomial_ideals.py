"""Monomial-ideal analytics: initial ideals, Hilbert series, witnesses.

The Hilbert series of T/M is K(M) / (1-z)^nvars, and the K-polynomial is
computed exactly (Bayer-Stillman 1992, Bigatti 1997).  First the minimal
generators are split into classes that share no variable; the K-polynomial of
a sum of ideals in disjoint variables is the product of theirs,

    K(M1 + M2) = K(M1) * K(M2).

A class of one generator of degree d gives 1 - z^d, which covers the unit
ideal (d = 0) and every complete intersection of pure powers.  A class of at
least two generators is memoised by its generator tuple and taken apart by
pivot recursion,

    K(M) = K(M + (x_i)) + z * K(M : x_i),

on a variable x_i that occurs in the most minimal generators.  The recursion
runs on plain generator tuples and builds no ``MonomialIdeal``.  Series are
reported as an integer numerator over (1-z)^e in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .groebner import Budget, Ideal
from .orders import OrderSpec, canonical_order
from .rings import Exponents, Polynomial, RingError, RingSpec, _checked, mono_divides


def _canonical(e: Exponents) -> tuple[int, Exponents]:
    """The sort key of minimal generators: degree, then exponents."""
    return sum(e), e


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, given by any iterable of generators.  It stores its
    unique minimal generators by degree, then exponents, so equal ideals
    compare equal."""

    ring: RingSpec
    gens: tuple[Exponents, ...]

    def __post_init__(self) -> None:
        # check all first: minimalizing could drop too short a vector unchecked
        minimal: list[Exponents] = []
        for m in sorted({_checked(self.ring, g) for g in self.gens}, key=_canonical):
            if all(not mono_divides(g, m) for g in minimal):
                minimal.append(m)
        object.__setattr__(self, "gens", tuple(minimal))


def initial_ideal(
    polys: Ideal | Sequence[Polynomial], order: OrderSpec | None = None, budget: Budget | None = None
) -> MonomialIdeal:
    """The ideal of the leading monomials of polys under order.

    An Ideal stands for its reduced basis under order, which gives in(I); a
    sequence is read as given.  An empty sequence, a zero polynomial or
    polynomials of different rings raise RingError.
    """
    if isinstance(polys, Ideal):
        ring = polys.ring
        order = order or canonical_order(ring)
        polys = polys.groebner_basis(order, budget)
    elif not polys or any(not p or p.ring != polys[0].ring for p in polys):
        raise RingError("leading monomials need nonzero polynomials of one ring")
    else:
        ring = polys[0].ring
        order = order or canonical_order(ring)
    key = order.key_function(ring)
    return MonomialIdeal(ring, [max(p.terms, key=key) for p in polys])


def is_squarefree(ideal: MonomialIdeal) -> bool:
    return all(all(e <= 1 for e in g) for g in ideal.gens)


def x_condition(ideal: MonomialIdeal) -> bool:
    """Every minimal generator has degree at most 1 in each x variable."""
    idxs = ideal.ring.block_indices("X")
    return all(all(g[i] <= 1 for i in idxs) for g in ideal.gens)


# -- Hilbert series --

_Z = RingSpec((("Z", ("z",)),))


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(z) / (1-z)^denom_power with integer coefficients, stored in
    lowest terms (zero is ((), 0)), so equal series compare equal."""

    numerator: tuple[int, ...]
    denom_power: int

    def __post_init__(self) -> None:
        num = list(self.numerator)
        while num and num[-1] == 0:
            num.pop()
        e = self.denom_power if num else 0
        while e > 0 and sum(num) == 0:
            # num / (1-z): the partial sums of num, the last (zero) one dropped
            num = list(accumulate(num))[:-1]
            e -= 1
        object.__setattr__(self, "numerator", tuple(num))
        object.__setattr__(self, "denom_power", e)

    def is_palindromic(self) -> bool:
        return self.numerator == self.numerator[::-1]

    def to_json(self) -> dict[str, object]:
        return {"numerator": list(self.numerator), "denom_power": self.denom_power}

    def __str__(self) -> str:
        num = Polynomial(_Z, {(k,): c for k, c in enumerate(self.numerator)})
        text = num.to_text(key=lambda e: -e[0])  # ascending degree
        if self.denom_power == 0 or not num:
            return text
        return f"({text}) / (1-z)^{self.denom_power}"


def _add_shifted(a: list[int], b: list[int], k: int) -> list[int]:
    """a + z^k * b."""
    out = a + [0] * (len(b) + k - len(a))
    for i, c in enumerate(b, k):
        out[i] += c
    return out


PivotChooser = Callable[[tuple[Exponents, ...]], int]


def pivot_most_frequent(gens: tuple[Exponents, ...]) -> int:
    """The variable that divides the most generators, the lowest index among
    ties.

    It is only called on a connected ideal with at least 2 generators.  There
    every variable of a generator also occurs in a generator that is not a
    pure power, so the variable chosen is one of those.
    """
    counts = [sum(1 for g in gens if g[i]) for i in range(len(gens[0]))]
    return counts.index(max(counts))


def _times(a: list[int], b: list[int]) -> list[int]:
    """a * b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b, i):
            out[j] += c * d
    return out


def _classes(gens: tuple[Exponents, ...]) -> list[tuple[Exponents, ...]]:
    """The generators grouped into classes that share no variable, each class
    in the order of ``gens``."""
    classes: list[tuple[set[int], list[int]]] = []  # (variables, generator positions)
    for k, g in enumerate(gens):
        support = {i for i, e in enumerate(g) if e}
        members = [k]
        apart = []
        for variables, positions in classes:
            if variables & support:
                support |= variables
                members += positions
            else:
                apart.append((variables, positions))
        classes = apart + [(support, members)]
    return [tuple(gens[k] for k in sorted(ks)) for _, ks in classes]


def _split(gens: tuple[Exponents, ...], i: int) -> tuple[tuple[Exponents, ...], tuple[Exponents, ...]]:
    """M + (x_i) and M : x_i for the generators of M, each sorted by
    ``_canonical``.

    M + (x_i) is x_i and the generators it does not divide.  For M : x_i the
    generators that x_i divides are lowered by x_i; m/x_i | m'/x_i means
    m | m', so they stay minimal among themselves.  No other generator divides
    a lowered one, as it would divide its original too, so of the others only
    those that a lowered one divides are dropped.
    """
    x = tuple(int(v == i) for v in range(len(gens[0])))
    lowered = [g[:i] + (g[i] - 1,) + g[i + 1 :] for g in gens if g[i]]
    others = [g for g in gens if not g[i]]
    kept = [g for g in others if not any(mono_divides(m, g) for m in lowered)]
    return tuple(sorted(others + [x], key=_canonical)), tuple(sorted(lowered + kept, key=_canonical))


def _numerator(gens: tuple[Exponents, ...], pivot: PivotChooser, memo: dict, budget: Budget) -> list[int]:
    """K-polynomial of T/M for the generators of M: HS = K / (1-z)^nvars."""
    budget.check_deadline()
    out = [1]
    for part in _classes(gens):
        if len(part) == 1:
            k = _add_shifted([1], [-1], sum(part[0]))  # 1 - z^d
        else:
            k = memo.get(part)
            if k is None:
                plus, colon = (_numerator(m, pivot, memo, budget) for m in _split(part, pivot(part)))
                k = memo[part] = _add_shifted(plus, colon, 1)
        out = _times(out, k)
    return out


def hilbert_numerator(
    ideal: MonomialIdeal, pivot: PivotChooser = pivot_most_frequent, budget: Budget | None = None
) -> HilbertSeries:
    """Exact Hilbert series of T/M under the standard grading.

    The budget's deadline is checked once per recursion node; no step is
    counted.
    """
    num = _numerator(ideal.gens, pivot, {}, budget or Budget())
    return HilbertSeries(tuple(num), ideal.ring.nvars)
