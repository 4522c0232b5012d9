"""Helpers for filling symmetric cumulant arrays entry by entry."""

from __future__ import annotations

import functools
import itertools

__all__ = ["sym_fill", "pair_fill"]


@functools.cache
def _permutations(idx) -> tuple:
    """The distinct permutations of the index tuple idx, built once per
    tuple: the families fill the same few entries on every call."""
    return tuple(set(itertools.permutations(idx)))


def sym_fill(arr, idx, value) -> None:
    """Assign value at every permutation of idx (fully symmetric block)."""
    for perm in _permutations(tuple(idx)):
        arr[perm] = value


def pair_fill(arr, jr, su, value) -> None:
    """Assign value at (j,r,s,u) symmetric separately in (j,r) and (s,u)."""
    for head in _permutations(tuple(jr)):
        for tail in _permutations(tuple(su)):
            arr[head + tail] = value
