"""Monomial-ideal analytics: initial ideals, Hilbert series, witnesses.

The Hilbert series of T/M is computed exactly by pivot recursion,

    HS(T/M) = HS(T/(M + (p))) + z^deg(p) * HS(T/(M : p)),

pivoting on a variable that occurs in the most minimal generators; ideals
generated by pure powers are the complete-intersection base case.  Series are
reported as an integer numerator over (1-z)^e in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .groebner import Budget, Ideal
from .orders import OrderSpec, canonical_order
from .rings import Exponents, RingError, RingSpec, mono_divides


def _minimalize(gens: Iterable[Exponents]) -> tuple[Exponents, ...]:
    """Drop generators divisible by another; deterministic output order."""
    unique = sorted(set(gens), key=lambda e: (sum(e), e))
    minimal: list[Exponents] = []
    for m in unique:
        if all(not mono_divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(minimal)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generators."""

    ring: RingSpec
    gens: tuple[Exponents, ...]

    @classmethod
    def from_exponents(cls, ring: RingSpec, gens: Iterable[Exponents]) -> "MonomialIdeal":
        gens = tuple(gens)
        for g in gens:
            if len(g) != ring.nvars:
                raise RingError("exponent vector length does not match ring")
        return cls(ring, _minimalize(gens))

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


def _quotients(gens: Iterable[Exponents], p: Exponents) -> list[Exponents]:
    """Generators of (gens) : p, each m / gcd(m, p); not minimalized."""
    return [tuple(max(e - q, 0) for e, q in zip(g, p)) for g in gens]


def colon_mono(ideal: MonomialIdeal, p: Exponents) -> MonomialIdeal:
    """M : p, computed generator-wise as m / gcd(m, p)."""
    return MonomialIdeal.from_exponents(ideal.ring, _quotients(ideal.gens, p))


def sum_mono(ideal: MonomialIdeal, p: Exponents) -> MonomialIdeal:
    return MonomialIdeal.from_exponents(ideal.ring, ideal.gens + (tuple(p),))


# -- Hilbert series --


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
        while e > 0:
            quotient = _divide_by_one_minus_z(num)
            if quotient is None:
                break
            num = quotient
            e -= 1
        return HilbertSeries(tuple(num), e)

    def is_palindromic(self) -> bool:
        return list(self.numerator) == list(reversed(self.numerator))

    def to_json(self) -> dict[str, object]:
        return {"numerator": list(self.numerator), "denom_power": self.denom_power}

    def __str__(self) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for k, c in enumerate(self.numerator):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                z = "z" if k == 1 else f"z^{k}"
                parts.append(("-" if c < 0 else "+") + f" {mag}{z}" if parts else (("-" if c < 0 else "") + f"{mag}{z}"))
        body = " ".join(parts)
        if self.denom_power == 0:
            return body
        return f"({body}) / (1-z)^{self.denom_power}"


def _divide_by_one_minus_z(num: list[int]) -> list[int] | None:
    """num / (1-z) if exact, else None; q_k is the partial sum of num."""
    total = 0
    out = []
    for c in num:
        total += c
        out.append(total)
    if total != 0:
        return None
    out.pop()
    return out if out else [0]


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_shift(a: list[int], k: int) -> list[int]:
    return [0] * k + list(a)


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


def _numerator(gens: tuple[Exponents, ...], pivot: PivotChooser, memo: dict) -> list[int]:
    """K-polynomial of T/(gens): HS = K / (1-z)^nvars."""
    if not gens:
        return [1]
    if any(not any(g) for g in gens):
        return [0]
    if all(sum(1 for e in g if e) == 1 for g in gens):
        # pure powers: complete intersection, K = prod (1 - z^deg)
        out = [1]
        for g in gens:
            out = _poly_add(out, [-c for c in _poly_shift(out, sum(g))])
        return out
    cached = memo.get(gens)
    if cached is not None:
        return cached
    i = pivot(gens)
    p = tuple(1 if k == i else 0 for k in range(len(gens[0])))
    plus = _minimalize(gens + (p,))
    colon = _minimalize(_quotients(gens, p))
    result = _poly_add(_numerator(plus, pivot, memo), _poly_shift(_numerator(colon, pivot, memo), 1))
    memo[gens] = result
    return result


def hilbert_numerator(ideal: MonomialIdeal, pivot: PivotChooser = pivot_most_frequent) -> HilbertSeries:
    """Exact Hilbert series of T/M under the standard grading, canonical form."""
    num = _numerator(ideal.gens, pivot, {})
    return HilbertSeries(tuple(num), ideal.ring.nvars).canonical()
