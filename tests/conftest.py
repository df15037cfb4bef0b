"""Shared caches so expensive eliminations run once per session."""

from __future__ import annotations

import pytest

from cycle_rees.groebner import Ideal
from cycle_rees.rees import PathIdealSpec, fiber_ideal, rees_ideal, sym_relations

_REES: dict[tuple[int, int], Ideal] = {}
_FIBER: dict[tuple[int, int], Ideal] = {}
_SYM: dict[tuple[int, int], Ideal] = {}


def cached_rees(n: int, t: int) -> Ideal:
    key = (n, t)
    if key not in _REES:
        _REES[key] = rees_ideal(PathIdealSpec(n, t))
    return _REES[key]


def cached_fiber(n: int, t: int) -> Ideal:
    key = (n, t)
    if key not in _FIBER:
        _FIBER[key] = fiber_ideal(cached_rees(n, t))
    return _FIBER[key]


def cached_sym(n: int, t: int) -> Ideal:
    key = (n, t)
    if key not in _SYM:
        _SYM[key] = sym_relations(PathIdealSpec(n, t))
    return _SYM[key]


@pytest.fixture(scope="session")
def rees_cache():
    return cached_rees


@pytest.fixture(scope="session")
def fiber_cache():
    return cached_fiber


@pytest.fixture(scope="session")
def sym_cache():
    return cached_sym
