"""Monomial orders built from per-block stages.

An order is a sequence of stages; each stage names some blocks and a base
order (``lex`` or ``grevlex``).  Monomials are compared stage by stage, so a
stage over an early block dominates everything after it.  Stages must cover
every block of the ring exactly once, which makes the order total.

The two orders that matter here:

* the product order that compares the Y part by graded reverse lex with
  priority ``y1 > y2 > ... > y0`` and breaks ties by lex on the X part with
  ``x1 > x2 > ... > x0``;
* its elimination variants, where the variables to be eliminated form the
  leading stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable

from .rings import Exponents, RingError, RingSpec

BASE_ORDERS = ("lex", "grevlex")

Stage = tuple[tuple[str, ...], str]
KeyFunction = Callable[[Exponents], tuple]


@dataclass(frozen=True)
class OrderSpec:
    """A block monomial order; stages compare in sequence."""

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        for blocks, base in self.stages:
            if base not in BASE_ORDERS:
                raise RingError(f"unsupported base order {base!r}")
            if not blocks:
                raise RingError("empty stage")

    def validate(self, ring: RingSpec) -> None:
        staged = [b for blocks, _ in self.stages for b in blocks]
        if sorted(staged) != sorted(ring.block_names):
            raise RingError(
                f"order stages {staged} do not cover ring blocks {list(ring.block_names)} exactly once"
            )

    def key_function(self, ring: RingSpec) -> KeyFunction:
        """Compile to a key: tuple comparison of keys realizes the order.

        Each stage reads its exponents with an ``itemgetter`` (a slice when the
        indices are contiguous).  A lex stage compares them as read.  A grevlex
        stage compares its reversed prefix sums (S_k, S_{k-1}, ..., S_1): the
        degree first, then, at equal degree, a larger S_{k-1} means a smaller
        last exponent.  A stage over one variable is just that exponent.
        """
        self.validate(ring)
        parts: list[KeyFunction] = []
        for blocks, base in self.stages:
            idxs = [i for b in blocks for i in ring.block_indices(b)]
            if not idxs:
                continue  # a block without variables compares nothing
            if len(idxs) == 1:
                parts.append(itemgetter(idxs[0]))
                continue
            if idxs == list(range(idxs[0], idxs[0] + len(idxs))):
                read = itemgetter(slice(idxs[0], idxs[0] + len(idxs)))
            else:
                read = itemgetter(*idxs)
            if base == "lex":
                parts.append(read)
            else:
                parts.append(lambda exps, read=read: tuple(accumulate(read(exps)))[::-1])
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            first, second = parts
            return lambda exps: (first(exps), second(exps))
        if len(parts) == 3:
            first, second, third = parts
            return lambda exps: (first(exps), second(exps), third(exps))
        return lambda exps: tuple([part(exps) for part in parts])

    def describe(self) -> list[dict[str, object]]:
        """JSON-friendly description, for certificates."""
        return [{"blocks": list(blocks), "base": base} for blocks, base in self.stages]


def leading_term(order: OrderSpec, p) -> tuple[Exponents, "object"]:
    """Maximal (monomial, coefficient) of a nonzero polynomial under order."""
    if p.is_zero():
        raise RingError("zero polynomial has no leading term")
    key = order.key_function(p.ring)
    exps = max(p.monomials(), key=key)
    return exps, p.coefficient(exps)


def product_order(ring: RingSpec) -> OrderSpec:
    """The product order on a ring with X and Y blocks (no elimination)."""
    if set(ring.block_names) - {"Y", "X"}:
        raise RingError("product order needs a ring with exactly the Y and X blocks")
    return canonical_order(ring)


def canonical_order(ring: RingSpec) -> OrderSpec:
    """Default order for a ring: Y by grevlex, then X by lex, then the rest."""
    return elimination_order(ring, ())


def elimination_order(ring: RingSpec, drop_blocks: tuple[str, ...]) -> OrderSpec:
    """Order whose leading stages isolate ``drop_blocks`` for elimination.

    The dropped blocks lead by grevlex; the kept blocks follow as Y by
    grevlex, then X by lex, then any other block by lex.
    """
    for b in drop_blocks:
        if b not in ring.block_names:
            raise RingError(f"no block {b!r} to eliminate")
    rest = sorted((b for b in ring.block_names if b not in drop_blocks), key=lambda b: {"Y": 0, "X": 1}.get(b, 2))
    stages = [((b,), "grevlex") for b in drop_blocks]
    stages.extend(((b,), "grevlex" if b == "Y" else "lex") for b in rest)
    return OrderSpec(tuple(stages))
