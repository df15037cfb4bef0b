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
        """Compile to a key: tuple comparison of keys realizes the order."""
        self.validate(ring)
        stage_specs: list[tuple[str, tuple[int, ...]]] = []
        for blocks, base in self.stages:
            idxs: list[int] = []
            for b in blocks:
                idxs.extend(ring.block_indices(b))
            stage_specs.append((base, tuple(idxs)))

        def key(exps: Exponents) -> tuple:
            parts: list = []
            for base, idxs in stage_specs:
                if base == "lex":
                    parts.append(tuple(exps[i] for i in idxs))
                else:
                    total = 0
                    for i in idxs:
                        total += exps[i]
                    parts.append(total)
                    parts.append(tuple(-exps[i] for i in reversed(idxs)))
            return tuple(parts)

        return key

    def describe(self) -> list[dict[str, object]]:
        """JSON-friendly description, for certificates."""
        return [{"blocks": list(blocks), "base": base} for blocks, base in self.stages]


def monomial_cmp(order: OrderSpec, ring: RingSpec, a: Exponents, b: Exponents) -> int:
    """-1, 0 or 1 as a <, =, > b under the order."""
    if len(a) != ring.nvars or len(b) != ring.nvars:
        raise RingError("exponent vector length does not match ring")
    key = order.key_function(ring)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


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
    """Default order for a ring: eliminate S if present, then Y, then X."""
    return elimination_order(ring, tuple(b for b in ring.block_names if b == "S"))


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
