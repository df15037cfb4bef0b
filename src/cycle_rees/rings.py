"""Exact sparse multivariate polynomials over the rationals.

Variables are organized in named blocks (e.g. an X block and a Y block) so
that block orders and block eliminations can be expressed uniformly.  A
monomial is a dense tuple of non-negative exponents, one per ring variable in
declaration order; a polynomial maps monomials to nonzero coefficients, each
an int when integral and a Fraction otherwise.  Everything is immutable and
safe to share between tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, le
from types import MappingProxyType
from typing import Mapping

Exponents = tuple[int, ...]


class RingError(ValueError):
    """Raised on ring/variable mismatches."""


class InvariantError(Exception):
    """An internal consistency check failed: a bug, not a bad input."""


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring described by ordered, named variable blocks."""

    blocks: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        for kind, names in (("block", self.block_names), ("variable", self.variables)):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise RingError(f"duplicate {kind} {name!r}")
                seen.add(name)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for _, names in self.blocks for name in names)

    @cached_property
    def nvars(self) -> int:
        return len(self.variables)

    @cached_property
    def var_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    @cached_property
    def block_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def block_indices(self, block: str) -> tuple[int, ...]:
        for name, names in self.blocks:
            if name == block:
                return tuple(self.var_index[v] for v in names)
        raise RingError(f"no block {block!r}")

    @cached_property
    def display_indices(self) -> tuple[int, ...]:
        """Variable indices in printing order: X block, Y block, then the rest.

        Other blocks keep their declaration order.  Within a block, variables
        print by ascending numeric suffix (none sorts first, ties keep
        declaration order) so that monomial text looks like ``x0*x1*y2``.
        """
        preference = {"X": 0, "Y": 1}

        def suffix(name: str) -> int:
            m = re.fullmatch(r"[A-Za-z]+(\d+)", name)
            return int(m.group(1)) if m else -1

        blocks = sorted(self.blocks, key=lambda b: preference.get(b[0], 2))
        return tuple(self.var_index[v] for _, names in blocks for v in sorted(names, key=suffix))

    def without(self, block: str) -> "RingSpec":
        """Subring on every block but ``block``, in this ring's block order."""
        if block not in self.block_names:
            raise RingError(f"no block {block!r}")
        return RingSpec(tuple(b for b in self.blocks if b[0] != block))


def cycle_ring(n: int) -> RingSpec:
    """The ring K[y1..y0, x1..x0] attached to the n-cycle.

    Block-internal order is the priority order y1 > y2 > ... > y_{n-1} > y0
    (same pattern for x), so order keys can read exponents left to right.
    """
    if n < 3:
        raise RingError("cycle size must be at least 3")
    ys = tuple(f"y{i % n}" for i in range(1, n + 1))
    xs = tuple(f"x{i % n}" for i in range(1, n + 1))
    return RingSpec((("Y", ys), ("X", xs)))


def x_ring(n: int) -> RingSpec:
    return cycle_ring(n).without("Y")


def y_ring(n: int) -> RingSpec:
    return cycle_ring(n).without("X")


# -- monomial helpers (monomials are plain exponent tuples) --

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _checked(ring: RingSpec, exps: Exponents) -> Exponents:
    """``exps`` as a tuple; RingError unless it is an exponent vector of ``ring``."""
    if len(exps) != ring.nvars:
        raise RingError("exponent vector length does not match ring")
    if min(exps, default=0) < 0:
        raise RingError("negative exponent")
    return tuple(exps)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[Exponents, int | Fraction]):
        for exps in terms:
            _checked(ring, exps)
        self.ring = ring
        # one form per value: an integral coefficient is kept as an int
        self._terms = {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}
        self._hash: int | None = None

    # -- mapping access --

    @property
    def terms(self) -> Mapping[Exponents, int | Fraction]:
        """Read-only view of the term dict, without a copy."""
        return MappingProxyType(self._terms)

    def block_degrees(self, block: str) -> set[int]:
        """Set of per-term degrees in the given block (bihomogeneity probe)."""
        idxs = self.ring.block_indices(block)
        return {sum(e[i] for i in idxs) for e in self._terms}

    # -- arithmetic --

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.ring, {e: k * other for e, k in self._terms.items()})
        self._require_same_ring(other)
        out: dict[Exponents, int | Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = mono_mul(ea, eb)
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # -- ring maps --

    def to_ring(self, ring: RingSpec) -> "Polynomial":
        """This polynomial in ``ring``, variables matched by name; RingError if
        a variable that occurs here is missing there (others need not be)."""
        pos = [ring.var_index.get(v) for v in self.ring.variables]
        out: dict[Exponents, int | Fraction] = {}
        for exps, coeff in self._terms.items():
            vec = [0] * ring.nvars
            for name, p, e in zip(self.ring.variables, pos, exps):
                if e:
                    if p is None:
                        raise RingError(f"target ring lacks variable {name!r}")
                    vec[p] = e
            out[tuple(vec)] = coeff
        return Polynomial(ring, out)

    # -- text format --

    def to_text(self, key=None) -> str:
        """Terms in descending order of ``key``, by default the canonical order's."""
        if not self._terms:
            return "0"
        if key is None:
            from .orders import canonical_order  # local import to avoid a cycle

            key = canonical_order(self.ring).key_function(self.ring)
        chunks: list[str] = []
        for pos, (exps, coeff) in enumerate(sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)):
            body = self._monomial_text(exps)
            mag = abs(coeff)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if pos == 0:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"{' + ' if coeff > 0 else ' - '}{text}")
        return "".join(chunks)

    def _monomial_text(self, exps: Exponents) -> str:
        parts = []
        names = self.ring.variables
        for i in self.ring.display_indices:
            e = exps[i]
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts) if parts else "1"


_FACTOR = re.compile(r"(\d+(?:/\d+)?)|([A-Za-z]\w*)(?:\s*\^\s*(\d+))?")
_TERM = re.compile(rf"([-+]?)\s*((?:{_FACTOR.pattern})(?:\s*\*\s*(?:{_FACTOR.pattern}))*)\s*")


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse polynomial text; blank text is the zero polynomial.

    The grammar: terms ``[+-] factor (* factor)*``, each after the first
    with its sign; a factor is an integer ``a``, a fraction ``a/b`` or a
    variable ``name`` with an optional ``^k``; whitespace may surround every
    token.  Any other text, an unknown variable or a zero denominator raises
    RingError.
    """
    text = text.strip()
    terms: dict[Exponents, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m[1]):
            raise RingError(f"cannot parse {text[pos:]!r}")
        pos = m.end()
        coeff = Fraction(-1 if m[1] == "-" else 1)
        exps = [0] * ring.nvars
        for num, name, power in _FACTOR.findall(m[2]):
            if num:
                try:
                    coeff *= Fraction(num)
                except ZeroDivisionError:
                    raise RingError(f"zero denominator in {num!r}") from None
            elif name in ring.var_index:
                exps[ring.var_index[name]] += int(power or 1)
            else:
                raise RingError(f"unknown variable {name!r}")
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return Polynomial(ring, terms)
