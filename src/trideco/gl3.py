"""Decomposition of a third-order tensor under arbitrary invertible basis change.

The tensor splits uniquely into a totally symmetric part, a totally
antisymmetric part and a mixed-symmetry residue.  The residue splits further
into two 8-dimensional pieces, but that finer split is a genuine gauge choice;
three inequivalent families are provided and the caller must name one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import parts
from .symmetrizers import MIXED_PAIRS
from .tensor import EUCLIDEAN, Tensor3

FAMILIES = ("plain", "tilde", "hat")


def _like(t: Tensor3, components) -> Tensor3:
    return Tensor3(components, t.variance, t.parity)


def symmetric_part(t: Tensor3) -> Tensor3:
    """Average of all six slot permutations."""
    return _like(t, parts.symmetric(t.components))


def antisymmetric_part(t: Tensor3) -> Tensor3:
    """Sign-weighted average of all six slot permutations."""
    return _like(t, parts.antisymmetric(t.components))


def residue_part(t: Tensor3) -> Tensor3:
    """What remains after removing both fully symmetric and antisymmetric parts."""
    x = t.components
    return _like(t, parts.residue(x, parts.symmetric(x), parts.antisymmetric(x)))


def check_family(family: str) -> None:
    """Raise ``ValueError`` unless ``family`` names one of ``FAMILIES``."""
    if family not in MIXED_PAIRS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def n_split(t: Tensor3, family: str) -> tuple[Tensor3, Tensor3]:
    """Split the mixed-symmetry residue of ``t`` into the named pair.

    The two outputs always sum to ``residue_part(t)``.  In the plain family
    the first output is symmetric in slots 1,2 and the second in slots 1,3.
    """
    check_family(family)
    return tuple(_like(t, parts.mixed(t.components, family, member)) for member in (0, 1))


@dataclass(frozen=True)
class Gl3Parts:
    s: Tensor3
    a: Tensor3
    n: Tensor3
    n1: Tensor3
    n2: Tensor3
    family: str


def decompose(t: Tensor3, family: str) -> Gl3Parts:
    check_family(family)
    s, a, n, n1, n2 = (
        _like(t, part)
        for part in parts.apply(
            ("symmetric", "antisymmetric", "residue", f"n1_{family}", f"n2_{family}"),
            t.components,
            EUCLIDEAN,  # no gl3 operator reads the metric
        )
    )
    return Gl3Parts(s=s, a=a, n=n, n1=n1, n2=n2, family=family)
