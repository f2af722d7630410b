"""Group algebra of the slot permutations and the Young machinery for order 3.

Operators are kept unnormalized with integer coefficients so that formal
identities such as ``FULL_SYMMETRIZER @ FULL_SYMMETRIZER == 6 * FULL_SYMMETRIZER``
hold exactly; the decomposition layer applies the 1/6 and 1/3 normalizations.

Every symmetry test of the package reads one table: ``SYMMETRIES`` names
each symmetry by the elements that vanish exactly on the tensors having it,
such as ``I - S/6`` or ``I + (12)``, and ``defects(names, x)`` measures how
far one tensor is from each named symmetry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .permutations import S3, S3_INDEX, Perm
from .tensor import Tensor3


#: row ``p`` lists, for each flattened component of the result, the flattened
#: component of the input that the slot action of ``S3[p]`` moves there
_SLOT_ACTION = np.stack(
    [np.transpose(np.arange(27).reshape(3, 3, 3), perm.transpose_axes()).reshape(27)
     for perm in S3]
)


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Formal real linear combination of slot permutations.

    ``coeffs[p]`` is the coefficient of ``S3[p]``; the canonical ordering of
    the six permutations makes equality and composition exact.  The same
    coefficients as an array are kept outside the fields, so equality and
    hashing read the tuple alone.
    """

    coeffs: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise ValueError("an element needs one coefficient per permutation")
        coeffs = tuple(float(c) for c in self.coeffs)
        array = np.array(coeffs)
        array.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_array", array)

    @classmethod
    def from_terms(cls, terms) -> "GroupAlgebraElement":
        coeffs = [0.0] * 6
        for coefficient, sigma in terms:
            perm = sigma if isinstance(sigma, Perm) else Perm.from_cycle(sigma)
            coeffs[S3_INDEX[perm]] += float(coefficient)
        return cls(tuple(coeffs))

    @classmethod
    def identity(cls) -> "GroupAlgebraElement":
        return cls((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def zero(cls) -> "GroupAlgebraElement":
        return cls((0.0,) * 6)

    def terms(self):
        """Nonzero (coefficient, permutation) pairs in canonical order."""
        return [(c, S3[p]) for p, c in enumerate(self.coeffs) if c != 0.0]

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(tuple(-a for a in self.coeffs))

    def __mul__(self, scale) -> "GroupAlgebraElement":
        return GroupAlgebraElement(tuple(a * float(scale) for a in self.coeffs))

    __rmul__ = __mul__

    def __matmul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Formal product; ``other`` acts first, then ``self``."""
        coeffs = [0.0] * 6
        for pa, ca in enumerate(self.coeffs):
            if ca == 0.0:
                continue
            for pb, cb in enumerate(other.coeffs):
                if cb == 0.0:
                    continue
                coeffs[S3_INDEX[S3[pa] * S3[pb]]] += ca * cb
        return GroupAlgebraElement(tuple(coeffs))

    def apply(self, t: Tensor3) -> Tensor3:
        return Tensor3(self.on_components(t.components), t.variance, t.parity)

    def on_components(self, x: np.ndarray) -> np.ndarray:
        """The same combination on raw components of shape ``(..., 3, 3, 3)``."""
        flat = x.reshape(x.shape[:-3] + (27,))
        return (self._array @ flat[..., _SLOT_ACTION]).reshape(x.shape)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for coefficient, perm in self.terms():
            sign = "-" if coefficient < 0 else "+"
            magnitude = abs(coefficient)
            body = perm.label if perm.label != "e" else "I"
            if magnitude != 1.0:
                body = f"{magnitude:g}*{body}"
            pieces.append(f"{sign} {body}")
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else text


def _element(*terms) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_terms(terms)


IDENTITY_OP = GroupAlgebraElement.identity()

#: sum of all six permutations
FULL_SYMMETRIZER = _element(*((1, perm) for perm in S3))
#: signed sum of all six permutations
FULL_ANTISYMMETRIZER = _element(*((perm.sign, perm) for perm in S3))

# Mixed-symmetry operator pairs.  Each is a product of a two-slot symmetrizer
# and a two-slot antisymmetrizer; the composition order is part of the
# definition and distinguishes the families.
_SYM_12 = _element((1, "e"), (1, "(12)"))
_SYM_13 = _element((1, "e"), (1, "(13)"))
_SYM_23 = _element((1, "e"), (1, "(23)"))
_ANTI_12 = _element((1, "e"), (-1, "(12)"))
_ANTI_13 = _element((1, "e"), (-1, "(13)"))
_ANTI_23 = _element((1, "e"), (-1, "(23)"))

MIXED_PLAIN = (_SYM_12 @ _ANTI_13, _SYM_13 @ _ANTI_12)
MIXED_TILDE = (_SYM_23 @ _ANTI_12, _SYM_12 @ _ANTI_23)
MIXED_HAT = (_ANTI_23 @ _SYM_12, _ANTI_12 @ _SYM_23)

MIXED_PAIRS = {"plain": MIXED_PLAIN, "tilde": MIXED_TILDE, "hat": MIXED_HAT}

#: each symmetry by name, as the elements that send exactly the tensors with
#: that symmetry to zero
SYMMETRIES: dict[str, tuple[GroupAlgebraElement, ...]] = {
    "fully-symmetric": (IDENTITY_OP - FULL_SYMMETRIZER * (1.0 / 6.0),),
    "fully-antisymmetric": (IDENTITY_OP - FULL_ANTISYMMETRIZER * (1.0 / 6.0),),
    "pair-symmetric-jk": (_ANTI_23,),
    "pair-antisymmetric-ij": (_SYM_12,),
    "pair-symmetric-ij": (_ANTI_12,),
    "pair-symmetric-ik": (_ANTI_13,),
    "mixed": (FULL_SYMMETRIZER * (1.0 / 6.0), FULL_ANTISYMMETRIZER * (1.0 / 6.0)),
}


@functools.cache
def _defect_stack(names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked coefficients of the named symmetries' elements and the
    first row of each name, computed once per process."""
    elements = [SYMMETRIES[name] for name in names]
    starts = np.cumsum([0] + [len(e) for e in elements[:-1]])
    return np.array([e._array for each in elements for e in each]), starts


def defects(names: tuple[str, ...], x: np.ndarray) -> list[float]:
    """The defect of one tensor's components ``x`` from each named symmetry
    of ``SYMMETRIES``: the max-abs component of the images of ``x`` under
    the symmetry's elements, zero exactly when ``x`` has the symmetry.

    ``x`` is gathered once; the stack of coefficients is kept per ``names``.
    """
    coefficients, starts = _defect_stack(names)
    images = coefficients @ x.reshape(27)[_SLOT_ACTION]
    return np.maximum.reduceat(np.abs(images).max(axis=1), starts).tolist()


@dataclass(frozen=True)
class YoungDiagram:
    """A partition of 3 drawn as left-justified rows of cells."""

    row_lengths: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.row_lengths)
        if (
            not rows
            or any(r <= 0 for r in rows)
            or any(rows[i] < rows[i + 1] for i in range(len(rows) - 1))
            or sum(rows) != 3
        ):
            raise ValueError(f"not a partition of 3: {self.row_lengths!r}")
        object.__setattr__(self, "row_lengths", rows)

    def cells(self):
        """(row, column) pairs, 1-based."""
        return [
            (row + 1, col + 1)
            for row, length in enumerate(self.row_lengths)
            for col in range(length)
        ]

    def hook_length(self, row: int, col: int) -> int:
        arm = self.row_lengths[row - 1] - col
        leg = sum(1 for r in self.row_lengths[row:] if r >= col)
        return arm + leg + 1


def hook_dimension_s3(diagram: YoungDiagram) -> int:
    """Number of standard tableaux of the given shape."""
    product = 1
    for row, col in diagram.cells():
        product *= diagram.hook_length(row, col)
    dimension, remainder = divmod(6, product)
    if remainder:
        raise ValueError("hook product does not divide 3!")
    return dimension


def gl3_subspace_dimension(diagram: YoungDiagram) -> int:
    """Dimension of the invariant subspace of 3x3x3 tensors for this shape."""
    numerator, denominator = 1, 1
    for row, col in diagram.cells():
        numerator *= 3 + col - row
        denominator *= diagram.hook_length(row, col)
    dimension, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError("dimension formula did not produce an integer")
    return dimension
