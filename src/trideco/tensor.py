"""Dense order-1/2/3 tensor values over a 3-dimensional real space.

Values are immutable: components are copied on construction and the copy is
marked read-only, so every operation in this package is a pure function and
values can be shared freely across threads.

Variance is tracked as a runtime tag rather than a type.  Third-order tensors
and vectors are ``"upper"`` or ``"lower"``; second-order values carry one
letter per slot (``"uu"``, ``"ll"``, ``"lu"``, ``"ul"``).  Mixing variances in
an addition or a scalar product is a hard error, never a silent coercion.
``parity`` is 0 for a proper tensor and 1 for a pseudo-tensor; pseudo-tensors
pick up a ``sign(det R)`` factor under basis change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .permutations import Perm

DEFAULT_TOL = 1e-12

TENSOR3_VARIANCES = ("upper", "lower")
TENSOR2_VARIANCES = ("uu", "ll", "lu", "ul")
VECTOR_VARIANCES = ("upper", "lower")


class TensorError(ValueError):
    """Base class for tensor contract violations."""


class VarianceError(TensorError):
    """Operands carry incompatible variance or parity tags."""


class SymmetryError(TensorError):
    """An input violates the symmetry required by an operation."""


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise TensorError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise TensorError("components must be finite")
    arr.setflags(write=False)
    return arr


def max_abs(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.abs(arr).max()) if arr.size else 0.0


class _TaggedValue:
    """Shared arithmetic for tagged component arrays."""

    components: np.ndarray
    variance: str
    parity: int

    def _compatible(self, other) -> None:
        if type(self) is not type(other):
            raise VarianceError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.variance != other.variance or self.parity != other.parity:
            raise VarianceError(
                f"incompatible tags: ({self.variance}, parity {self.parity}) vs "
                f"({other.variance}, parity {other.parity})"
            )

    def _with(self, components):
        return type(self)(components, self.variance, self.parity)

    def __add__(self, other):
        self._compatible(other)
        return self._with(self.components + other.components)

    def __sub__(self, other):
        self._compatible(other)
        return self._with(self.components - other.components)

    def __neg__(self):
        return self._with(-self.components)

    def __mul__(self, scale):
        return self._with(self.components * float(scale))

    __rmul__ = __mul__

    def __truediv__(self, scale):
        return self._with(self.components / float(scale))

    def __getitem__(self, index):
        return self.components[index]

    def max_abs(self) -> float:
        return max_abs(self.components)

    def allclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        self._compatible(other)
        return max_abs(self.components - other.components) <= tol


@dataclass(frozen=True, eq=False)
class Tensor3(_TaggedValue):
    """27-component third-order tensor with variance and parity tags."""

    components: np.ndarray
    variance: str = "upper"
    parity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen_array(self.components, (3, 3, 3)))
        if self.variance not in TENSOR3_VARIANCES:
            raise TensorError(f"variance must be one of {TENSOR3_VARIANCES}")
        if self.parity not in (0, 1):
            raise TensorError("parity must be 0 or 1")

    @classmethod
    def _trusted(cls, components: np.ndarray, variance: str, parity: int) -> "Tensor3":
        """A tensor over ``components`` as given, with no copy and no check:
        the caller guarantees a read-only, finite ``(3, 3, 3)`` float array
        and valid tags."""
        value = object.__new__(cls)
        object.__setattr__(value, "components", components)
        object.__setattr__(value, "variance", variance)
        object.__setattr__(value, "parity", parity)
        return value

    @classmethod
    def zeros(cls, variance: str = "upper", parity: int = 0) -> "Tensor3":
        return cls(np.zeros((3, 3, 3)), variance, parity)

    @classmethod
    def single_entry(cls, index: tuple[int, int, int], value: float = 1.0,
                     variance: str = "upper", parity: int = 0) -> "Tensor3":
        arr = np.zeros((3, 3, 3))
        arr[index] = value
        return cls(arr, variance, parity)


@dataclass(frozen=True, eq=False)
class Tensor2(_TaggedValue):
    """9-component second-order value; variance has one letter per slot."""

    components: np.ndarray
    variance: str = "uu"
    parity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen_array(self.components, (3, 3)))
        if self.variance not in TENSOR2_VARIANCES:
            raise TensorError(f"variance must be one of {TENSOR2_VARIANCES}")
        if self.parity not in (0, 1):
            raise TensorError("parity must be 0 or 1")

    def trace(self) -> float:
        """Slot-contraction trace; meaningful for mixed variance."""
        return float(np.trace(self.components))

    def sym(self) -> "Tensor2":
        if self.variance not in ("uu", "ll"):
            raise VarianceError("symmetric part needs both slots at equal variance")
        return self._with((self.components + self.components.T) / 2.0)


@dataclass(frozen=True, eq=False)
class Vector3(_TaggedValue):
    components: np.ndarray
    variance: str = "upper"
    parity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen_array(self.components, (3,)))
        if self.variance not in VECTOR_VARIANCES:
            raise TensorError(f"variance must be one of {VECTOR_VARIANCES}")
        if self.parity not in (0, 1):
            raise TensorError("parity must be 0 or 1")


@dataclass(frozen=True, eq=False)
class Metric:
    """Symmetric positive-definite metric, its inverse and its contraction
    matrices.

    ``g`` must be exactly symmetric as stored.  The inverse is computed once
    and validated against ``g @ g_inv = I`` to within 1e-12.  The 27x27
    contraction matrix of each variance, and each part operator
    ``parts.operator`` compiles for this metric, is computed on first use
    and kept in the instance's ``_cache``.
    """

    g: np.ndarray
    g_inv: np.ndarray = field(init=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        g = _frozen_array(self.g, (3, 3))
        if not np.array_equal(g, g.T):
            raise TensorError("metric must be exactly symmetric")
        eigenvalues = np.linalg.eigvalsh(g)
        if np.min(eigenvalues) <= 0.0:
            raise TensorError("metric must be positive definite")
        g_inv = np.linalg.inv(g)
        g_inv = (g_inv + g_inv.T) / 2.0
        if max_abs(g @ g_inv - np.eye(3)) > 1e-12:
            raise TensorError("metric inverse fails the identity check")
        g_inv.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", g_inv)

    @classmethod
    def euclidean(cls) -> "Metric":
        return cls(np.eye(3))

    def contraction_matrix(self, variance: str) -> np.ndarray:
        """The three-slot metric contraction as a read-only 27x27 matrix on
        flattened components: ``g`` contracts upper indices, ``g_inv`` lower
        ones."""
        matrix = self._cache.get(variance)
        if matrix is None:
            g = self.g if variance == "upper" else self.g_inv
            matrix = np.einsum("im,jn,kp->ijkmnp", g, g, g).reshape(27, 27)
            matrix.setflags(write=False)
            self._cache[variance] = matrix
        return matrix


EUCLIDEAN = Metric.euclidean()


@dataclass(frozen=True, eq=False)
class BasisTransform:
    """Invertible change of basis; ``matrix`` acts on upper indices."""

    matrix: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        matrix = _frozen_array(self.matrix, (3, 3))
        det = np.linalg.det(matrix)
        if det == 0.0 or not np.isfinite(det):
            raise TensorError("basis transform must be invertible")
        inverse = np.linalg.inv(matrix)
        if max_abs(matrix @ inverse - np.eye(3)) > 1e-12:
            raise TensorError("basis transform is too ill-conditioned")
        inverse.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "inverse", inverse)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @classmethod
    def identity(cls) -> "BasisTransform":
        return cls(np.eye(3))

    def compose(self, other: "BasisTransform") -> "BasisTransform":
        """The transform applying ``other`` first, then ``self``."""
        return BasisTransform(self.matrix @ other.matrix)

    def inverted(self) -> "BasisTransform":
        return BasisTransform(self.inverse)


def _as_perm(sigma: Perm | str) -> Perm:
    return sigma if isinstance(sigma, Perm) else Perm.from_cycle(sigma)


def permute(t: Tensor3, sigma: Perm | str) -> Tensor3:
    """Move the content of slot p to slot sigma(p).

    ``permute(t, "(12)")`` swaps the first two slots: the result at (i, j, k)
    is ``t`` at (j, i, k).
    """
    perm = _as_perm(sigma)
    return t._with(np.transpose(t.components, perm.transpose_axes()))


def scalar_product(a: Tensor3, b: Tensor3, metric: Metric = EUCLIDEAN) -> float:
    """Full three-slot contraction of ``a`` and ``b`` through the metric."""
    if a.variance != b.variance:
        raise VarianceError("scalar product requires equal variance")
    contraction = metric.contraction_matrix(a.variance)
    return float(a.components.reshape(27) @ contraction @ b.components.reshape(27))


def norm(t: Tensor3, metric: Metric = EUCLIDEAN) -> float:
    return float(np.sqrt(max(scalar_product(t, t, metric), 0.0)))


def _on_slots(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix ``m`` applied to each of the three slots of ``x``."""
    return np.einsum("im,jn,kp,mnp->ijk", m, m, m, x)


def lower_indices(t: Tensor3, metric: Metric = EUCLIDEAN) -> Tensor3:
    if t.variance != "upper":
        raise VarianceError("lower_indices expects an upper-variance tensor")
    return Tensor3(_on_slots(metric.g, t.components), "lower", t.parity)


def raise_indices(t: Tensor3, metric: Metric = EUCLIDEAN) -> Tensor3:
    if t.variance != "lower":
        raise VarianceError("raise_indices expects a lower-variance tensor")
    return Tensor3(_on_slots(metric.g_inv, t.components), "upper", t.parity)


def _parity_factor(value, r: BasisTransform) -> float:
    return float(np.sign(np.linalg.det(r.matrix))) ** value.parity


def transform(value: Tensor3 | Tensor2 | Vector3, r: BasisTransform):
    """Apply the basis-change law matching the variance tags.

    Upper slots contract with the forward matrix, lower slots with the
    inverse; pseudo-tensors pick up an extra ``sign(det R)`` factor.
    """
    # one matrix per slot, by the first letter of the slot's variance tag
    mats = {"u": r.matrix, "l": r.inverse.T}
    if isinstance(value, Tensor3):
        new = _on_slots(mats[value.variance[0]], value.components)
    elif isinstance(value, Tensor2):
        a, b = (mats[letter] for letter in value.variance)
        new = a @ value.components @ b.T
    elif isinstance(value, Vector3):
        new = mats[value.variance[0]] @ value.components
    else:
        raise TypeError(f"cannot transform {type(value).__name__}")
    return value._with(_parity_factor(value, r) * new)


def transform_metric(metric: Metric, r: BasisTransform) -> Metric:
    new_g = r.inverse.T @ metric.g @ r.inverse
    # exact resymmetrization; Metric requires bitwise symmetry
    new_g = (new_g + new_g.T) / 2.0
    return Metric(new_g)
