"""Invariant decompositions of third-order tensors over a 3-dimensional real space.

The package splits a 27-component tensor into the invariant pieces available
at four levels of structure on the underlying space: nothing but linearity
(symmetric, antisymmetric and mixed parts), a metric (trace and traceless
refinements), a volume element (pseudo-scalar and matrix representations),
and both together (the finest split into vectors, traceless symmetric
matrices and a pseudo-scalar).  Pair-symmetric and pair-antisymmetric
constitutive shapes get their specialized, unique decompositions.  A
brute-force oracle materializes every linear map as an explicit matrix and
re-derives every shipped coefficient from its defining relations.

The level modules, the oracle, the report and the file readers are imported
on first access (``trideco.oracle``, ``from trideco import so3``), so a
process loads only the modules it uses.
"""

import importlib

from .permutations import S3, Perm
from .symmetrizers import (
    FULL_ANTISYMMETRIZER,
    FULL_SYMMETRIZER,
    GroupAlgebraElement,
    YoungDiagram,
    gl3_subspace_dimension,
    hook_dimension_s3,
)
from .tensor import (
    EUCLIDEAN,
    BasisTransform,
    Metric,
    SymmetryError,
    Tensor2,
    Tensor3,
    TensorError,
    VarianceError,
    Vector3,
    lower_indices,
    norm,
    permute,
    raise_indices,
    scalar_product,
    transform,
    transform_metric,
)

__version__ = "0.1.0"

#: the submodules imported on first access
_SUBMODULES = ("constitutive", "gl3", "o3", "oracle", "report", "sl3", "so3", "tensorio")


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))

__all__ = [
    "BasisTransform",
    "EUCLIDEAN",
    "FULL_ANTISYMMETRIZER",
    "FULL_SYMMETRIZER",
    "GroupAlgebraElement",
    "Metric",
    "Perm",
    "S3",
    "SymmetryError",
    "Tensor2",
    "Tensor3",
    "TensorError",
    "VarianceError",
    "Vector3",
    "YoungDiagram",
    "__version__",
    "constitutive",
    "gl3",
    "gl3_subspace_dimension",
    "hook_dimension_s3",
    "lower_indices",
    "norm",
    "o3",
    "oracle",
    "permute",
    "raise_indices",
    "report",
    "scalar_product",
    "sl3",
    "so3",
    "tensorio",
    "transform",
    "transform_metric",
]
