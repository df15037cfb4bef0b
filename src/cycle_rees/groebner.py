"""Buchberger engine: normal forms, reduced Groebner bases, ideal predicates.

The engine works on raw term dicts (exponent tuple -> Fraction) for speed and
wraps results back into Polynomial.  Pair handling uses the Gebauer-Moeller
update (which subsumes the coprime and chain criteria) with a deterministic
selection: minimal lcm degree first, FIFO among equals.  Reduction is full
tail reduction, so bases come out reduced and initial ideals are canonical.

Every entry point accepts an optional Budget; exceeding it raises
BudgetExceeded, which callers surface as "budget exceeded" rather than as a
mathematical answer.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .orders import OrderSpec, canonical_order, elimination_order
from .rings import (
    Exponents,
    Polynomial,
    RingError,
    RingSpec,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its step or time budget."""


class Budget:
    """Step/time budget shared across one logical computation."""

    __slots__ = ("max_steps", "deadline", "steps")

    def __init__(self, seconds: float | None = None, max_steps: int | None = None):
        self.max_steps = max_steps
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.steps = 0

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(f"step budget exceeded ({self.max_steps})")
        if self.deadline is not None and self.steps % 64 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exceeded")


_NO_BUDGET = Budget()

Terms = dict[Exponents, Fraction]


def _support_mask(exps: Exponents) -> int:
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


class _Engine:
    """Reduction state for one ring/order pair."""

    def __init__(self, ring: RingSpec, order: OrderSpec, budget: Budget):
        self.ring = ring
        self.order = order
        self.budget = budget
        raw_key = order.key_function(ring)
        memo: dict[Exponents, tuple] = {}

        def key(exps: Exponents) -> tuple:
            k = memo.get(exps)
            if k is None:
                k = raw_key(exps)
                memo[exps] = k
            return k

        self.key = key

    def leading(self, terms: Terms) -> Exponents:
        return max(terms, key=self.key)

    def make_monic(self, terms: Terms) -> Terms:
        lc = terms[self.leading(terms)]
        if lc == 1:
            return terms
        return {e: c / lc for e, c in terms.items()}

    def reduce_full(self, f: Terms, reducers: Sequence[tuple[Exponents, int, list[tuple[Exponents, Fraction]], Fraction]]) -> Terms:
        """Full normal form of f against reducers, largest reducible term first.

        Each reducer is (lead monomial, support mask, tail terms, lead coeff);
        the first divisor in list order wins, so the result is deterministic.
        """
        out: Terms = {}
        work = dict(f)
        key = self.key
        tick = self.budget.tick
        while work:
            tick()
            m = max(work, key=key)
            c = work.pop(m)
            mmask = _support_mask(m)
            for lm, lmask, tail, lc in reducers:
                if lmask & ~mmask:
                    continue
                if mono_divides(lm, m):
                    q = mono_div(m, lm)
                    fac = c / lc
                    for tm, tc in tail:
                        mm = mono_mul(tm, q)
                        nc = work.get(mm, _ZERO) - fac * tc
                        if nc:
                            work[mm] = nc
                        else:
                            work.pop(mm, None)
                    break
            else:
                out[m] = c
        return out

    def s_poly(self, f: Terms, lmf: Exponents, g: Terms, lmg: Exponents) -> Terms:
        """S-polynomial of monic f, g."""
        lcm = mono_lcm(lmf, lmg)
        qf = mono_div(lcm, lmf)
        qg = mono_div(lcm, lmg)
        out: Terms = {}
        for e, c in f.items():
            out[mono_mul(e, qf)] = c
        for e, c in g.items():
            mm = mono_mul(e, qg)
            nc = out.get(mm, _ZERO) - c
            if nc:
                out[mm] = nc
            else:
                out.pop(mm, None)
        return out


_ZERO = Fraction(0)


def _as_reducers(engine: _Engine, polys: Iterable[Terms]) -> list[tuple[Exponents, int, list[tuple[Exponents, Fraction]], Fraction]]:
    reducers = []
    for terms in polys:
        lm = engine.leading(terms)
        tail = [(e, c) for e, c in terms.items() if e != lm]
        reducers.append((lm, _support_mask(lm), tail, terms[lm]))
    return reducers


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    """Remainder of f on division by basis (in list order), fully reduced."""
    ring = f.ring
    order = order or canonical_order(ring)
    engine = _Engine(ring, order, budget or _NO_BUDGET)
    for g in basis:
        if g.ring != ring:
            raise RingError("basis polynomial in a different ring")
        if g.is_zero():
            raise RingError("zero polynomial in reduction basis")
    reducers = _as_reducers(engine, [g.terms for g in basis])
    return Polynomial(ring, engine.reduce_full(f.terms, reducers))


def _gm_update(
    engine: _Engine,
    basis: list[Terms],
    lms: list[Exponents],
    alive: dict[tuple[int, int], Exponents],
    heap: list[tuple[int, int, int, int]],
    counter: list[int],
    new_terms: Terms,
) -> None:
    """Add a polynomial to the basis, updating pairs per Gebauer-Moeller.

    ``alive`` maps each live pair to its lcm, so the chain criterion reads it
    instead of recomputing it; the newcomer's lcms are computed once.
    """
    t = len(basis)
    lmf = engine.leading(new_terms)
    key = engine.key
    new_lcms = [mono_lcm(lm, lmf) for lm in lms]

    # chain criterion: drop old pairs strictly dominated by the newcomer
    for (i, j), lcm_ij in list(alive.items()):
        if mono_divides(lmf, lcm_ij) and lcm_ij != new_lcms[i] and lcm_ij != new_lcms[j]:
            del alive[i, j]

    # group candidate pairs by lcm, keep only divisibility-minimal lcms
    lcm_groups: dict[Exponents, list[int]] = {}
    for i, lcm in enumerate(new_lcms):
        lcm_groups.setdefault(lcm, []).append(i)
    minimal: list[Exponents] = []
    for lcm in sorted(lcm_groups, key=key):
        if all(not mono_divides(prev, lcm) for prev in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        group = lcm_groups[lcm]
        # coprime criterion: if any pair in the group has coprime leads, all
        # pairs with this lcm are redundant
        if any(mono_mul(lms[i], lmf) == lcm for i in group):
            continue
        i = min(group)
        counter[0] += 1
        alive[i, t] = lcm
        heapq.heappush(heap, (sum(lcm), counter[0], i, t))

    basis.append(new_terms)
    lms.append(lmf)


def buchberger(
    generators: Sequence[Polynomial],
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the given generators, canonically sorted."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingError("generators live in different rings")
    order = order or canonical_order(ring)
    engine = _Engine(ring, order, budget or _NO_BUDGET)

    basis: list[Terms] = []
    lms: list[Exponents] = []
    alive: dict[tuple[int, int], Exponents] = {}
    heap: list[tuple[int, int, int, int]] = []
    counter = [0]
    for g in gens:
        monic = engine.make_monic(g.terms)
        _gm_update(engine, basis, lms, alive, heap, counter, monic)

    reducers = _as_reducers(engine, basis)
    while heap:
        entry = heapq.heappop(heap)
        pair = (entry[2], entry[3])
        if alive.pop(pair, None) is None:
            continue
        engine.budget.tick()
        i, j = pair
        s = engine.s_poly(basis[i], lms[i], basis[j], lms[j])
        if not s:
            continue
        r = engine.reduce_full(s, reducers)
        if r:
            monic = engine.make_monic(r)
            _gm_update(engine, basis, lms, alive, heap, counter, monic)
            reducers += _as_reducers(engine, [monic])

    return _reduce_basis(engine, basis, lms)


def _reduce_basis(engine: _Engine, basis: list[Terms], lms: list[Exponents]) -> tuple[Polynomial, ...]:
    """Minimalize then interreduce, returning the unique reduced basis."""
    key = engine.key
    order_idx = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    minimal: list[int] = []
    for i in order_idx:
        if all(not mono_divides(lms[j], lms[i]) for j in minimal):
            minimal.append(i)
    # a later element's lead is larger, so it divides no term of element pos
    all_reducers = _as_reducers(engine, [basis[i] for i in minimal])
    reduced: list[Terms] = []
    for pos, i in enumerate(minimal):
        r = engine.reduce_full(basis[i], all_reducers[:pos])
        reduced.append(engine.make_monic(r))
    reduced.sort(key=lambda terms: key(engine.leading(terms)))
    return tuple(Polynomial(engine.ring, terms) for terms in reduced)


def is_groebner_basis(
    basis: Sequence[Polynomial],
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> tuple[bool, tuple[int, int, Polynomial] | None]:
    """Check all S-pairs reduce to zero; on failure return (i, j, remainder).

    Pairs with coprime leading monomials are skipped (they always reduce to
    zero by Buchberger's first criterion).
    """
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return True, None
    ring = polys[0].ring
    order = order or canonical_order(ring)
    engine = _Engine(ring, order, budget or _NO_BUDGET)
    terms = [engine.make_monic(g.terms) for g in polys]
    lms = [engine.leading(t) for t in terms]
    reducers = _as_reducers(engine, terms)

    pairs = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            lcm = mono_lcm(lms[i], lms[j])
            if lcm == mono_mul(lms[i], lms[j]):
                continue
            pairs.append((sum(lcm), i, j))
    pairs.sort()
    for _, i, j in pairs:
        engine.budget.tick()
        s = engine.s_poly(terms[i], lms[i], terms[j], lms[j])
        if not s:
            continue
        r = engine.reduce_full(s, reducers)
        if r:
            return False, (i, j, Polynomial(ring, r))
    return True, None


@dataclass
class Ideal:
    """Generators plus a per-order cache of reduced Groebner bases."""

    ring: RingSpec
    generators: tuple[Polynomial, ...]
    _gb_cache: dict[OrderSpec, tuple[Polynomial, ...]] = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingError("generator in a different ring")
        self.ring = ring
        self.generators = gens
        self._gb_cache = {}

    @classmethod
    def with_cached_gb(
        cls, ring: RingSpec, generators: Iterable[Polynomial], order: OrderSpec, gb: tuple[Polynomial, ...]
    ) -> "Ideal":
        ideal = cls(ring, generators)
        ideal._gb_cache[order] = gb
        return ideal

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def groebner_basis(self, order: OrderSpec | None = None, budget: Budget | None = None) -> tuple[Polynomial, ...]:
        order = order or canonical_order(self.ring)
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = buchberger(self.generators, order, budget)
            self._gb_cache[order] = cached
        return cached


def ideal_membership(
    f: Polynomial,
    ideal: Ideal,
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> bool:
    if f.ring != ideal.ring:
        raise RingError("polynomial and ideal live in different rings")
    if f.is_zero():
        return True
    if ideal.is_zero_ideal():
        return False
    gb = ideal.groebner_basis(order, budget)
    return normal_form(f, gb, order or canonical_order(ideal.ring), budget).is_zero()


def ideal_equal(
    first: Ideal,
    second: Ideal,
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> bool:
    """Mutual inclusion, checked generator by generator against cached bases."""
    if first.ring != second.ring:
        raise RingError("ideals live in different rings")
    return all(ideal_membership(g, second, order, budget) for g in first.generators) and all(
        ideal_membership(g, first, order, budget) for g in second.generators
    )


def gb_certificate(
    basis: Sequence[Polynomial],
    order: OrderSpec,
) -> dict[str, object]:
    """JSON-ready certificate: canonical polynomial texts plus the order."""
    if basis:
        key = order.key_function(basis[0].ring)
        texts = [g.to_text(key) for g in basis]
    else:
        texts = []
    return {"order": order.describe(), "basis": texts}


def eliminate(
    ideal: Ideal,
    drop_blocks: Sequence[str],
    budget: Budget | None = None,
) -> Ideal:
    """Intersection with the subring omitting ``drop_blocks``.

    Computes a Groebner basis under an order whose leading stages isolate the
    dropped blocks; basis elements free of those variables generate (and are a
    reduced basis of) the intersection ideal.
    """
    drop = tuple(drop_blocks)
    if not drop:
        return ideal
    ring = ideal.ring
    order = elimination_order(ring, drop)
    gb = ideal.groebner_basis(order, budget)
    keep_blocks = tuple(b for b in ring.block_names if b not in drop)
    subring, indices = ring.restrict(keep_blocks)
    dropped_indices = [i for i in range(ring.nvars) if i not in set(indices)]
    kept = [g for g in gb if not g.involves(dropped_indices)]
    projected = tuple(g.project_to(subring, indices) for g in kept)
    sub_order = OrderSpec(order.stages[len(drop) :])
    return Ideal.with_cached_gb(subring, projected, sub_order, projected)
