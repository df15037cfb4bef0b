"""Monomial-ideal analytics: initial ideals, Hilbert series, witnesses.

The Hilbert series of T/M is computed exactly by pivot recursion,

    HS(T/M) = HS(T/(M + (p))) + z^deg(p) * HS(T/(M : p)),

pivoting on a variable that occurs in the most minimal generators; ideals
generated by pure powers are the complete-intersection base case.  Series are
reported as an integer numerator over (1-z)^e in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable

from .groebner import Budget, Ideal
from .orders import OrderSpec, canonical_order
from .rings import Exponents, Polynomial, RingError, RingSpec, mono_divides


def _minimalize(gens: Iterable[Exponents]) -> tuple[Exponents, ...]:
    """Drop generators divisible by another; deterministic output order."""
    unique = sorted(set(gens), key=lambda e: (sum(e), e))
    minimal: list[Exponents] = []
    for m in unique:
        if all(not mono_divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(minimal)


def _checked(ring: RingSpec, exps: Exponents) -> Exponents:
    """``exps`` as a tuple; RingError unless it is an exponent vector of ``ring``."""
    if len(exps) != ring.nvars:
        raise RingError("exponent vector length does not match ring")
    if min(exps, default=0) < 0:
        raise RingError("negative exponent")
    return tuple(exps)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generators."""

    ring: RingSpec
    gens: tuple[Exponents, ...]

    @classmethod
    def from_exponents(cls, ring: RingSpec, gens: Iterable[Exponents]) -> "MonomialIdeal":
        return cls(ring, _minimalize([_checked(ring, g) for g in gens]))

    def is_zero(self) -> bool:
        return not self.gens

    def contains_one(self) -> bool:
        return any(not any(g) for g in self.gens)

    def contains(self, exps: Exponents) -> bool:
        return any(mono_divides(g, exps) for g in self.gens)


def initial_ideal(ideal: Ideal, order: OrderSpec | None = None, budget: Budget | None = None) -> MonomialIdeal:
    """Minimal generators of the ideal of leading monomials of the reduced basis."""
    order = order or canonical_order(ideal.ring)
    gb = ideal.groebner_basis(order, budget)
    key = order.key_function(ideal.ring)
    leads = [max(g.monomials(), key=key) for g in gb]
    return MonomialIdeal.from_exponents(ideal.ring, leads)


def is_squarefree(ideal: MonomialIdeal) -> bool:
    return all(all(e <= 1 for e in g) for g in ideal.gens)


def x_condition(ideal: MonomialIdeal) -> bool:
    """Every minimal generator has degree at most 1 in each x variable."""
    idxs = ideal.ring.block_indices("X")
    return all(all(g[i] <= 1 for i in idxs) for g in ideal.gens)


def colon_mono(ideal: MonomialIdeal, p: Exponents) -> MonomialIdeal:
    """M : p, computed generator-wise as m / gcd(m, p)."""
    p = _checked(ideal.ring, p)
    return MonomialIdeal(ideal.ring, _minimalize([tuple(max(e - q, 0) for e, q in zip(g, p)) for g in ideal.gens]))


def sum_mono(ideal: MonomialIdeal, p: Exponents) -> MonomialIdeal:
    return MonomialIdeal(ideal.ring, _minimalize(ideal.gens + (_checked(ideal.ring, p),)))


# -- Hilbert series --

_Z = RingSpec((("Z", ("z",)),))


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(z) / (1-z)^denom_power with integer coefficients."""

    numerator: tuple[int, ...]
    denom_power: int

    def canonical(self) -> "HilbertSeries":
        num = list(self.numerator)
        while num and num[-1] == 0:
            num.pop()
        if not num:
            return HilbertSeries((), 0)
        e = self.denom_power
        while e > 0 and sum(num) == 0:
            # num / (1-z): the partial sums of num, the last (zero) one dropped
            num = list(accumulate(num))[:-1]
            e -= 1
        return HilbertSeries(tuple(num), e)

    def is_palindromic(self) -> bool:
        return list(self.numerator) == list(reversed(self.numerator))

    def to_json(self) -> dict[str, object]:
        return {"numerator": list(self.numerator), "denom_power": self.denom_power}

    def __str__(self) -> str:
        num = Polynomial(_Z, {(k,): c for k, c in enumerate(self.numerator)})
        text = num.to_text(key=lambda e: -e[0])  # ascending degree
        if self.denom_power == 0 or num.is_zero():
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
    """Variable in the support of a non-pure-power generator, maximizing the
    number of generators it divides; ties broken by lowest index."""
    nvars = len(gens[0])
    candidates = set()
    for g in gens:
        if sum(1 for e in g if e) > 1:
            candidates.update(i for i, e in enumerate(g) if e)
    counts = [sum(1 for g in gens if g[i]) for i in range(nvars)]
    return max(sorted(candidates), key=lambda i: counts[i])


def _numerator(ideal: MonomialIdeal, pivot: PivotChooser, memo: dict) -> list[int]:
    """K-polynomial of T/M: HS = K / (1-z)^nvars."""
    gens = ideal.gens
    if ideal.contains_one():
        return [0]
    if all(sum(1 for e in g if e) == 1 for g in gens):
        # pure powers: complete intersection, K = prod (1 - z^deg)
        out = [1]
        for g in gens:
            out = _add_shifted(out, [-c for c in out], sum(g))
        return out
    cached = memo.get(gens)
    if cached is None:
        i = pivot(gens)
        p = tuple(1 if k == i else 0 for k in range(ideal.ring.nvars))
        plus = _numerator(sum_mono(ideal, p), pivot, memo)
        cached = memo[gens] = _add_shifted(plus, _numerator(colon_mono(ideal, p), pivot, memo), 1)
    return cached


def hilbert_numerator(ideal: MonomialIdeal, pivot: PivotChooser = pivot_most_frequent) -> HilbertSeries:
    """Exact Hilbert series of T/M under the standard grading, canonical form."""
    num = _numerator(ideal, pivot, {})
    return HilbertSeries(tuple(num), ideal.ring.nvars).canonical()
