"""Buchberger engine: normal forms, reduced Groebner bases, ideal predicates.

Inside the engine a monomial is one int, ``key << 16 * nvars | exponents``.
The exponent part holds exponent i in bits [16i, 16i + 15) under a zero
guard bit (Bachmann-Schoenemann); above it sits the order key of
``OrderSpec.key_function``, whose fields are linear in the exponents.  So a
product is a sum, a quotient a difference, and int order is the term order.
An lcm or a divisibility test reads only the exponent part, in a few integer
operations, and two leads are coprime exactly when their lcm is their sum.
Terms are packed once on entry and unpacked for Polynomial on exit; an
exponent of 2^15 or more, given or produced, raises RingError.  The engine
converts no coefficient; Polynomial gives each its one exact form.  Each
basis element is held once, as a monic record (exponent lead, tail terms,
lead); S-polynomials are built from the two tails, since the monic leads
cancel.  Reduction scans the reducers for the first whose exponent lead
divides a term, and a memo owned by one reduction remembers that index per
monomial while the reducer list only grows.  Pair handling uses the
Gebauer-Moeller update (which subsumes the coprime and chain criteria) with
a deterministic selection: minimal lcm degree first, FIFO among equals; the
Groebner-basis checker walks the same pairs.  Reduction is full tail
reduction, so bases come out reduced and initial ideals are canonical.  An
Ideal keeps the records of each cached basis, so the reductions against it
pack that basis once.

Every entry point accepts an optional Budget; exceeding it raises
BudgetExceeded, which callers surface as "budget exceeded" rather than as a
mathematical answer.
"""

from __future__ import annotations

import heapq
import itertools
import struct
import time
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .orders import OrderSpec, canonical_order, elimination_order
from .rings import Exponents, Polynomial, RingError, RingSpec


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its step or time budget."""


class Budget:
    """Step/time budget shared across one logical computation."""

    __slots__ = ("max_steps", "deadline", "steps")

    def __init__(self, seconds: float | None = None, max_steps: int | None = None):
        self.max_steps = max_steps
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(f"step budget exceeded ({self.max_steps})")
        if self.steps % 64 == 0:
            self.check_deadline()

    def check_deadline(self) -> None:
        """Raise if the time budget has run out; counts no step."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exceeded")


# Packed monomial -> exact coefficient, an int or a Fraction as the
# arithmetic yields it.
Terms = dict[int, int | Fraction]
# One basis element: (exponent part of its lead, monic tail terms, packed lead).
Reducer = tuple[int, Terms, int]
# Packed monomial -> the index of its first divisor in a reducer list, or ~k
# when none of the first k reducers divides it.
Memo = dict[int, int]


_OVERFLOW = "exponent outside 0..32767, the range of a packed monomial"


def _pack(exps: Exponents) -> int:
    """The exponent part of a packed monomial; an exponent of 2^15 or more
    sets its field's guard bit, which the engine rejects."""
    try:
        return int.from_bytes(struct.pack(f"<{len(exps)}H", *exps), "little")
    except struct.error:  # an exponent below 0 or of 2^16 or more
        raise RingError(_OVERFLOW) from None


def _unpack(packed: int, nvars: int) -> Exponents:
    """The exponents of an exponent part."""
    return struct.unpack(f"<{nvars}H", packed.to_bytes(2 * nvars, "little"))


class _Engine:
    """Reduction state for one ring/order pair."""

    def __init__(self, ring: RingSpec, order: OrderSpec, budget: Budget):
        self.ring = ring
        self.budget = budget
        self.nvars = nvars = ring.nvars
        # every field's guard bit, packed like an exponent of 2^15
        self.guard = guard = _pack((1 << 15,) * nvars)
        self.ones = _pack((1,) * nvars)  # the lowest bit of every field
        shift = 16 * nvars
        self.exponents = (1 << shift) - 1  # the exponent part's bits
        key = order.key_function(ring)

        def pack(terms: Mapping[Exponents, int | Fraction]) -> Terms:
            out: Terms = {}
            for e, c in terms.items():
                m = _pack(e)
                if m & guard:
                    raise RingError(_OVERFLOW)
                out[key(e) << shift | m] = c
            return out

        def lift(m: int) -> tuple[int, int]:
            """The packed monomial and the degree of an exponent part."""
            e = _unpack(m, nvars)
            return key(e) << shift | m, sum(e)

        self.pack = pack
        self.lift = lift
        self.excess: dict[int, tuple[int, int]] = {}  # lifts of lcm excesses over a newcomer's lead

    def unpack(self, terms: Terms) -> dict[Exponents, int | Fraction]:
        exponents, nvars = self.exponents, self.nvars
        return {_unpack(m & exponents, nvars): c for m, c in terms.items()}

    def reducer(self, terms: Terms) -> Reducer:
        """The monic record of a nonzero packed polynomial."""
        lead = max(terms)
        lc = terms[lead]
        if lc == 1:
            tail = {m: c for m, c in terms.items() if m != lead}
        elif lc == -1:
            tail = {m: -c for m, c in terms.items() if m != lead}
        else:
            lc = Fraction(lc)
            tail = {m: c / lc for m, c in terms.items() if m != lead}
        return lead & self.exponents, tail, lead

    def records(self, basis: Sequence[Polynomial]) -> tuple[tuple[Reducer, ...], tuple[int, ...]]:
        """The monic records of a reduction basis and their exponent leads."""
        for g in basis:
            if g.ring != self.ring:
                raise RingError("basis polynomial in a different ring")
            if not g:
                raise RingError("zero polynomial in reduction basis")
        reducers = tuple(self.reducer(self.pack(g.terms)) for g in basis)
        return reducers, tuple(rec[0] for rec in reducers)

    def reduce_full(
        self, work: Terms, reducers: Sequence[Reducer], leads: Sequence[int], memo: Memo
    ) -> Terms:
        """Full normal form of work (consumed) against reducers, largest
        reducible term first.

        The first divisor in list order wins, so the result is deterministic.
        ``leads`` holds the exponent lead of each reducer, in the same order;
        the scan reads it, as a list of ints iterates faster than the records.
        Fields of terms and quotients are below 2^15, so a product's overflow
        sets only its guard bit, which the check on each popped term catches.
        ``memo`` remembers each popped monomial's first divisor; it is exact
        only while reducers grows by appends alone.
        """
        out: Terms = {}
        tick = self.budget.tick
        guard = self.guard
        exponents = self.exponents
        while work:
            tick()
            m = max(work)
            c = work.pop(m)
            if m & guard:
                raise RingError(_OVERFLOW)
            k = memo.get(m, -1)
            if k < 0:
                start = ~k
                # the exponent part with every guard bit set; a divisor's
                # exponents leave every guard bit of the difference in place
                mg = (m | guard) & exponents
                for elead in itertools.islice(leads, start, None) if start else leads:
                    if (mg - elead) & guard == guard:
                        k = leads.index(elead, start)
                        break
                else:
                    memo[m] = ~len(reducers)
                    out[m] = c
                    continue
                memo[m] = k
            _, tail, lead = reducers[k]
            q = m - lead
            for tm, tc in tail.items():
                mm = tm + q
                nc = work.get(mm, 0) - c * tc
                if nc:
                    work[mm] = nc
                else:
                    work.pop(mm, None)
        return out


def _s_poly(f: Reducer, g: Reducer, lcm: int) -> Terms:
    """S-polynomial of two monic records whose leads have the packed lcm
    ``lcm``: the leads cancel, the tails remain."""
    _, tail_f, lead_f = f
    _, tail_g, lead_g = g
    qf = lcm - lead_f
    qg = lcm - lead_g
    out = {m + qf: c for m, c in tail_f.items()}
    for m, c in tail_g.items():
        mm = m + qg
        nc = out.get(mm, 0) - c
        if nc:
            out[mm] = nc
        else:
            out.pop(mm, None)
    return out


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial] | Ideal,
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    """Remainder of f on division by basis (in list order), fully reduced; an
    Ideal stands for its reduced basis under order."""
    return Polynomial(f.ring, _reducer(f.ring, basis, order, budget)(f.terms))


def _reducer(
    ring: RingSpec,
    basis: Sequence[Polynomial] | Ideal,
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> Callable[[Mapping[Exponents, int | Fraction]], dict[Exponents, int | Fraction]]:
    """The normal form against one basis, as a map from the term dict of a
    polynomial of ring to that of its normal form.

    Its calls share one engine, one record list and one first-divisor memo.
    An Ideal stands for its reduced basis under order and keeps the records
    for its next reducer; a sequence is packed afresh.  A value may be a
    Fraction after a division by a lead coefficient; ``cm_type_odd``'s leads
    are ±1, so its rows stay int.
    """
    order = order or canonical_order(ring)
    engine = _Engine(ring, order, budget or Budget())
    if isinstance(basis, Ideal):
        if basis.ring != ring:
            raise RingError("basis polynomial in a different ring")
        if order not in basis._records:
            basis._records[order] = engine.records(basis.groebner_basis(order, budget))
        reducers, leads = basis._records[order]
    else:
        reducers, leads = engine.records(basis)
    memo: Memo = {}
    return lambda f: engine.unpack(engine.reduce_full(engine.pack(f), reducers, leads, memo))


class _Pairs:
    """A basis of records and its S-pairs under the Gebauer-Moeller update.

    ``leads`` holds the exponent lead of each basis record.  ``alive`` maps
    each live pair (i, j), i < j, to the exponent part of the lcm of its
    leads; the heap may still hold pairs the update has since dropped from
    it.  The basis only grows by appends, so one first-divisor memo serves
    every reduction against it.
    """

    __slots__ = ("engine", "basis", "leads", "alive", "heap", "counter", "memo")

    def __init__(self, engine: _Engine):
        self.engine = engine
        self.basis: list[Reducer] = []
        self.leads: list[int] = []
        self.alive: dict[tuple[int, int], int] = {}
        # (degree of the lcm, FIFO counter, i, j, packed lcm)
        self.heap: list[tuple[int, int, int, int, int]] = []
        self.counter = itertools.count()
        self.memo: Memo = {}

    def insert(self, new: Reducer) -> None:
        """Add a record to the basis, updating pairs per Gebauer-Moeller.

        The newcomer's lcms are computed once: the chain criterion reads each
        pair's exponent lcm from ``alive``, and the S-polynomial its packed
        lcm from the heap entry, which is built once per queued pair.  This
        scans the basis and every live pair, so the packed lcm and
        divisibility tests are inlined.
        """
        engine, leads, alive, heap, counter = self.engine, self.leads, self.alive, self.heap, self.counter
        t = len(leads)
        lf, _, packed_lf = new
        guard = engine.guard
        # lcm(lead, lf) is lf plus lead's excess over lf, the fields of
        # (lead | guard) - lf that kept their guard bit (packed_lcm in
        # tests/oracles.py)
        new_lcms = [
            lf + (diff & (kept - (kept >> 15)))
            for lead in leads
            for diff in ((lead | guard) - lf,)
            for kept in (diff & guard,)
        ]

        # chain criterion: drop old pairs strictly dominated by the newcomer,
        # that is, whose lcm the newcomer's lead divides
        dominated = [
            ij
            for ij, lcm in alive.items()
            if ((lcm | guard) - lf) & guard == guard and lcm != new_lcms[ij[0]] and lcm != new_lcms[ij[1]]
        ]
        for ij in dominated:
            del alive[ij]

        # group candidate pairs by lcm, keep only divisibility-minimal lcms
        lcm_groups: dict[int, list[int]] = {}
        for i, lcm in enumerate(new_lcms):
            lcm_groups.setdefault(lcm, []).append(i)
        # an lcm lf * x_v divides every other lcm whose quotient by lf holds
        # x_v, so only the quotients free of all such x_v, and those of
        # degree at most one, can be minimal
        ones = engine.ones
        units = [lcm for lcm in lcm_groups for q in (lcm - lf,) if q & (q - 1) == 0 and q & ones]
        taken = 0  # the value bits of every field some unit quotient holds
        for lcm in units:
            taken |= (lcm - lf) * 0x7FFF
        # a divisor packs to a smaller int, so int order meets divisors first
        minimal: list[int] = []
        for lcm in sorted([lcm for lcm in lcm_groups if not (lcm - lf) & taken] + units):
            lg = lcm | guard
            for prev in minimal:
                if (lg - prev) & guard == guard:
                    break
            else:
                minimal.append(lcm)
        # the key is linear, so an lcm packs and weighs as lf plus its excess
        # over lf, which is small and repeats across insertions
        degree_lf, excess = sum(_unpack(lf, engine.nvars)), engine.excess
        pushed = []
        for lcm in minimal:
            group = lcm_groups[lcm]
            # coprime criterion: if any pair in the group has coprime leads,
            # all pairs with this lcm are redundant
            for i in group:
                if leads[i] + lf == lcm:
                    break
            else:
                q = lcm - lf
                packed_q, degree_q = excess.get(q) or excess.setdefault(q, engine.lift(q))
                pushed.append((packed_lf + packed_q, degree_lf + degree_q, group[0], lcm))  # groups ascend
        # FIFO ties among equal degrees follow the term order of the lcms
        pushed.sort()
        for packed, degree, i, lcm in pushed:
            alive[i, t] = lcm
            heapq.heappush(heap, (degree, next(counter), i, t, packed))

        self.basis.append(new)
        leads.append(lf)

    def remainders(self) -> Iterator[tuple[int, int, Terms]]:
        """Pop the live pairs in order and yield (i, j, remainder) for each
        S-polynomial whose normal form is nonzero; the caller may insert
        before resuming."""
        engine, basis, leads, alive, heap, memo = self.engine, self.basis, self.leads, self.alive, self.heap, self.memo
        tick = engine.budget.tick
        while heap:
            _, _, i, j, lcm = heapq.heappop(heap)
            if alive.pop((i, j), None) is None:
                continue
            tick()
            s = _s_poly(basis[i], basis[j], lcm)
            if not s:
                continue
            r = engine.reduce_full(s, basis, leads, memo)
            if r:
                yield i, j, r


def _pairs_of(
    polys: Sequence[Polynomial],
    order: OrderSpec | None,
    budget: Budget | None,
) -> _Pairs | None:
    """The pair state of the nonzero polys, inserted in list order, or None
    when there are none."""
    gens = [g for g in polys if g]
    if not gens:
        return None
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingError("generators live in different rings")
    engine = _Engine(ring, order or canonical_order(ring), budget or Budget())
    pairs = _Pairs(engine)
    for g in gens:
        # an insertion is no step, but many of them can outlast the budget
        engine.budget.check_deadline()
        pairs.insert(engine.reducer(engine.pack(g.terms)))
    return pairs


def buchberger(
    generators: Sequence[Polynomial],
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the given generators, canonically sorted."""
    pairs = _pairs_of(generators, order, budget)
    if pairs is None:
        return ()
    for _, _, r in pairs.remainders():
        pairs.insert(pairs.engine.reducer(r))
    engine, basis = pairs.engine, pairs.basis
    del pairs  # frees the queue's memo, live pairs and heap before interreduction
    return _reduce_basis(engine, basis)


def _reduce_basis(engine: _Engine, basis: list[Reducer]) -> tuple[Polynomial, ...]:
    """Minimalize and interreduce, returning the unique reduced basis.

    The records are taken in ascending lead order, and one is kept when no
    kept lead divides its own.  A later lead is larger, so it divides no term
    of an earlier element; each kept element reduces against the ones kept
    before it, keeps its lead with coefficient 1, and the output ascends
    without a final sort.  The kept list grows by appends alone, so one
    first-divisor memo serves every element.  No kept lead divides the lead
    itself, so only the tail is reduced; the lead still counts its step.
    """
    guard = engine.guard
    minimal: list[Reducer] = []
    leads: list[int] = []
    memo: Memo = {}
    reduced = []
    for rec in sorted(basis, key=itemgetter(2)):
        elead, tail, lead = rec
        lg = elead | guard
        for prev in leads:
            if (lg - prev) & guard == guard:  # packed_divides(prev, elead) in tests/oracles.py
                break
        else:
            engine.budget.tick()  # the lead's step
            terms = engine.reduce_full(dict(tail), minimal, leads, memo)
            reduced.append(Polynomial(engine.ring, engine.unpack({lead: 1, **terms})))
            minimal.append(rec)
            leads.append(elead)
    return tuple(reduced)


def is_groebner_basis(
    basis: Sequence[Polynomial],
    order: OrderSpec | None = None,
    budget: Budget | None = None,
) -> tuple[bool, tuple[int, int, Polynomial] | None]:
    """Whether the nonzero polynomials of basis form a Groebner basis; on
    failure, (i, j, remainder) for a pair of them whose S-polynomial has a
    nonzero normal form.

    The check walks the pairs Buchberger's algorithm keeps under the
    Gebauer-Moeller update: the algorithm adds nothing to the basis exactly
    when each of them reduces to zero.  i < j index the nonzero inputs.
    """
    pairs = _pairs_of(basis, order, budget)
    if pairs is not None:
        for i, j, r in pairs.remainders():
            return False, (i, j, Polynomial(pairs.engine.ring, pairs.engine.unpack(r)))
    return True, None


class Ideal:
    """Generators plus, per order, a cache of the reduced Groebner basis and
    of its engine records, which the first reduction against it fills."""

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if g)
        for g in gens:
            if g.ring != ring:
                raise RingError("generator in a different ring")
        self.ring = ring
        self.generators = gens
        self._gb_cache: dict[OrderSpec, tuple[Polynomial, ...]] = {}
        self._records: dict[OrderSpec, tuple[tuple[Reducer, ...], tuple[int, ...]]] = {}

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
    return not normal_form(f, ideal, order, budget)


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
    return {"order": order.describe(), "basis": [g.to_text(order.key_function(g.ring)) for g in basis]}


def eliminate(ideal: Ideal, block: str, budget: Budget | None = None) -> Ideal:
    """Intersection with the subring omitting ``block``.

    Computes a Groebner basis under an order whose leading stage isolates the
    block; basis elements free of its variables generate (and are a reduced
    basis of) the intersection ideal.
    """
    ring = ideal.ring
    gb = ideal.groebner_basis(elimination_order(ring, block), budget)
    subring = ring.without(block)
    dropped = ring.block_indices(block)
    projected = tuple(g.to_ring(subring) for g in gb if not any(e[i] for e in g.terms for i in dropped))
    result = Ideal(subring, projected)
    result._gb_cache[canonical_order(subring)] = projected
    return result
