"""Monomial orders built from per-block stages.

An order is a sequence of stages; each stage names some blocks and a base
order (``lex`` or ``grevlex``).  Monomials are compared stage by stage, so a
stage over an early block dominates everything after it.  Stages must cover
every block of the ring exactly once, which makes the order total.

The orders that matter here:

* the product order that compares the Y part by graded reverse lex with
  priority ``y1 > y2 > ... > y0`` and breaks ties by lex on the X part with
  ``x1 > x2 > ... > x0``;
* its elimination variants, where the one block to be eliminated forms the
  leading stage; and one grevlex stage over the whole ring.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Callable

from .rings import Exponents, RingError, RingSpec

BASE_ORDERS = ("lex", "grevlex")

Stage = tuple[tuple[str, ...], str]
KeyFunction = Callable[[Exponents], int]


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
        """Compile to a key: int comparison of keys realizes the order.

        The key packs one unsigned 32-bit field per variable, most significant
        first, stage by stage.  A lex stage gives its exponents as read (an
        ``itemgetter`` slice when the indices are contiguous).  A grevlex stage
        gives its reversed prefix sums (S_k, S_{k-1}, ..., S_1): the degree
        first, then, at equal degree, a larger S_{k-1} means a smaller last
        exponent.  Every field is a nonnegative linear form of the exponents,
        so the key of a product is the sum of the keys.  A field outside
        0..2^32 - 1 raises RingError.  Equal orders on equal rings share a key.
        """
        return _compile_key(self, ring)

    def describe(self) -> list[dict[str, object]]:
        """JSON-friendly description, for certificates."""
        return [{"blocks": list(blocks), "base": base} for blocks, base in self.stages]


@lru_cache(maxsize=128)
def _compile_key(order: OrderSpec, ring: RingSpec) -> KeyFunction:
    """The body of ``OrderSpec.key_function``, compiled once per (order, ring)."""
    order.validate(ring)
    parts: list[Callable[[Exponents], tuple[int, ...]]] = []
    for blocks, base in order.stages:
        idxs = [i for b in blocks for i in ring.block_indices(b)]
        if not idxs:
            continue  # a block without variables compares nothing
        if idxs == list(range(idxs[0], idxs[0] + len(idxs))):
            read = itemgetter(slice(idxs[0], idxs[0] + len(idxs)))
        else:
            read = itemgetter(*idxs)
        if base == "lex" or len(idxs) == 1:
            parts.append(read)
        else:
            parts.append(lambda exps, read=read: tuple(accumulate(read(exps)))[::-1])
    if len(parts) == 1:
        (fields,) = parts
    elif len(parts) == 2:
        first, second = parts
        fields = lambda exps: (*first(exps), *second(exps))
    elif len(parts) == 3:
        first, second, third = parts
        fields = lambda exps: (*first(exps), *second(exps), *third(exps))
    else:
        fields = lambda exps: [f for part in parts for f in part(exps)]
    pack = struct.Struct(f">{ring.nvars}I").pack
    from_bytes = int.from_bytes

    def key(exps: Exponents) -> int:
        try:
            return from_bytes(pack(*fields(exps)), "big")
        except struct.error:  # a field below 0 or of 2^32 or more
            raise RingError(f"order key field outside 0..{2**32 - 1}") from None

    return key


def product_order(ring: RingSpec) -> OrderSpec:
    """The product order on a ring whose blocks are among Y and X (no elimination)."""
    if set(ring.block_names) - {"Y", "X"}:
        raise RingError("product order needs a ring with no blocks but Y and X")
    return canonical_order(ring)


def canonical_order(ring: RingSpec) -> OrderSpec:
    """Default order for a ring: Y by grevlex, then X by lex, then the rest by lex."""
    blocks = sorted(ring.block_names, key=lambda b: {"Y": 0, "X": 1}.get(b, 2))
    return OrderSpec(tuple(((b,), "grevlex" if b == "Y" else "lex") for b in blocks))


def grevlex_order(ring: RingSpec) -> OrderSpec:
    """One grevlex stage over every block in ring order; the last variable is the smallest."""
    return OrderSpec(((ring.block_names, "grevlex"),))


def elimination_order(ring: RingSpec, block: str) -> OrderSpec:
    """Order that eliminates ``block``: it leads by grevlex, then the rest in canonical order."""
    return OrderSpec((((block,), "grevlex"), *canonical_order(ring.without(block)).stages))
