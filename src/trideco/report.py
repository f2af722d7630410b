"""Decomposition reports: symmetry classification, part norms, Gram matrices.

A report is one product: ``parts.apply`` multiplies the input by the
compiled operators of its parts and of the identity, which the metric
keeps in its ``_cache`` after the first report.  The parts and the input's
own row form one block; its Gram matrix gives every norm and share and is
checked for finiteness once, and each part's tensor is a read-only view of
its row.  The symmetry class reads the four class defects of
``symmetrizers.defects``, relative to the input's max-abs component.  The
JSON document and the text rendering both read the report's own fields, so
both carry identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gl3, o3, parts
from .constitutive import HallTensor, PiezoTensor
from .sl3 import pseudo_scalar_of
from .symmetrizers import defects
from .tensor import EUCLIDEAN, Metric, Tensor3, TensorError, VarianceError, max_abs

REPORT_SCHEMA = 1

#: classification threshold, relative to the tensor's max-abs component
CLASSIFY_REL_TOL = 1e-9

LEVELS = ("gl3", "o3", "sl3", "so3")
MODES = ("generic", "piezo", "hall")

_GL3 = (("sym", "symmetric"), ("antisym", "antisymmetric"), ("mixed", "residue"))
_SYM_TRACE = (("sym_trace", "k_part"), ("sym_traceless", "r_part"), ("antisym", "antisymmetric"))

#: (label, part name) of every reported part, in report order, per report
#: shape (the level, or the mode for piezo and hall) and mixed-part family
REPORT_PARTS = {
    ("gl3", None): _GL3,
    **{
        ("gl3", family): _GL3[:2] + (("mixed_1", f"n1_{family}"), ("mixed_2", f"n2_{family}"))
        for family in gl3.FAMILIES
    },
    ("o3", None): _SYM_TRACE + (("mixed_trace", "m_part"), ("mixed_traceless", "p_part")),
    ("sl3", None): _GL3,
    ("so3", "plain"): _SYM_TRACE + (
        ("mixed_1_trace", "m1_part"),
        ("mixed_1_traceless", "p1_part"),
        ("mixed_2_trace", "m2_part"),
        ("mixed_2_traceless", "p2_part"),
    ),
    ("piezo", None): (
        ("sym_trace", "piezo_k"),
        ("sym_traceless", "piezo_r"),
        ("mixed_trace", "piezo_m"),
        ("mixed_traceless", "piezo_p"),
    ),
    ("hall", None): (
        ("antisym", "hall_a"),
        ("mixed_trace", "hall_m"),
        ("mixed_traceless", "hall_p"),
    ),
}

#: the operators of each report's one product: its parts, then the identity,
#: whose row is the input
_OPERATORS = {
    key: tuple(name for _, name in named) + ("identity",) for key, named in REPORT_PARTS.items()
}

#: the symmetry classes, most specific first
_CLASSES = ("fully-symmetric", "fully-antisymmetric", "pair-symmetric-jk", "pair-antisymmetric-ij")

#: report shapes that carry the pseudo-scalar
_PSEUDO_SCALAR_SHAPES = ("sl3", "so3", "hall")


def classify_symmetry(t: Tensor3, rel_tol: float = CLASSIFY_REL_TOL) -> str:
    """Most specific symmetry class of ``t``.

    One of ``fully-symmetric``, ``fully-antisymmetric``, ``pair-symmetric-jk``,
    ``pair-antisymmetric-ij``, ``generic``: the first class, in that order,
    whose defect from ``symmetrizers.defects`` is at most ``rel_tol`` times
    the max-abs component of ``t``.  The zero tensor is fully symmetric.
    """
    threshold = rel_tol * t.max_abs()
    found = defects(_CLASSES, t.components)
    return next((name for name, defect in zip(_CLASSES, found) if defect <= threshold), "generic")


@dataclass(frozen=True)
class PartEntry:
    name: str
    dim: int
    norm: float
    share: float
    tensor: Tensor3


@dataclass(frozen=True)
class DecompositionReport:
    level: str
    mode: str
    family: str | None
    input_summary: dict
    parts: tuple[PartEntry, ...]
    gram: np.ndarray
    residual: float
    pseudo_scalar: float | None

    def to_dict(self) -> dict:
        document = {
            "schema": REPORT_SCHEMA,
            "input": self.input_summary,
            "level": self.level,
            "mode": self.mode,
            "parts": [
                {"name": p.name, "dim": p.dim, "norm": p.norm, "share": p.share}
                for p in self.parts
            ],
            "gram": self.gram.tolist(),
            "residual": self.residual,
        }
        if self.family is not None:
            document["family"] = self.family
        if self.pseudo_scalar is not None:
            document["pseudo_scalar"] = self.pseudo_scalar
        return document

    def render_text(self, tol: float = 1e-12) -> str:
        summary = self.input_summary
        lines = [
            f"input: norm {summary['norm']:.12g}, "
            f"class {summary['symmetry_class']}, "
            f"variance {summary['variance']}",
            f"level {self.level}, mode {self.mode}"
            + ("" if self.family is None else f", family {self.family}"),
            "",
            f"{'part':<18}{'dim':>4}{'norm':>22}{'share':>12}",
        ]
        for part in self.parts:
            lines.append(f"{part.name:<18}{part.dim:>4}{part.norm:>22.12e}{part.share:>12.6f}")
        total_share = sum(part.share for part in self.parts)
        lines.append(f"{'total':<18}{'':>4}{'':>22}{total_share:>12.6f}")
        lines.append("")
        if self.pseudo_scalar is not None:
            lines.append(f"pseudo-scalar: {self.pseudo_scalar:.12g}")
        off_diag = scale = 0.0
        gram = self.gram
        if gram.size:
            diagonal = gram.diagonal()
            off_diag = float(np.abs(gram - np.diag(diagonal)).max())
            scale = float(diagonal.max())
        lines.append(
            f"gram off-diagonal max: {off_diag:.3e}"
            + ("" if off_diag <= tol * scale else "  (parts not mutually orthogonal)")
        )
        lines.append(f"reconstruction residual: {self.residual:.3e}")
        return "\n".join(lines) + "\n"


def build_report(
    t: Tensor3,
    level: str = "so3",
    family: str | None = None,
    mode: str = "generic",
    metric: Metric = EUCLIDEAN,
) -> DecompositionReport:
    """Decompose ``t`` at the requested level and package the result.

    Generic modes expect upper variance.  The finest level reports the
    plain-family branch splits; at the ``gl3`` level a family is required
    only when the mixed-part split is requested.  The piezo and hall modes
    repair or reject ``t`` as ``PiezoTensor`` and ``HallTensor`` do and
    report at the ``o3`` level.
    """
    if mode == "piezo":
        t = (t if isinstance(t, PiezoTensor) else PiezoTensor(t)).tensor
    elif mode == "hall":
        t = (t if isinstance(t, HallTensor) else HallTensor(t)).tensor
    elif mode != "generic":
        raise ValueError(f"unknown mode {mode!r}")
    elif t.variance != "upper":
        raise VarianceError("generic decomposition expects an upper-variance tensor")
    elif level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    elif level == "gl3" and family is not None:
        gl3.check_family(family)

    shape = level if mode == "generic" else mode
    if shape != "gl3":
        family = "plain" if shape == "so3" else None
    named = REPORT_PARTS[shape, family]
    x = t.components
    arrays = parts.apply(_OPERATORS[shape, family], x, metric)
    arrays.setflags(write=False)
    count = len(named)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = o3.gram(arrays.reshape(count + 1, 27), metric, t.variance)
    # the contraction is positive definite, so a part that overflowed leaves
    # a non-finite diagonal entry too
    if not np.isfinite(gram).all():
        raise TensorError(
            "report overflows: the Gram matrix of the parts is not finite "
            f"(max-abs component {max_abs(x):.3e})"
        )
    norms = np.sqrt(np.maximum(gram.diagonal(), 0.0))
    total_sq = norms[-1] ** 2
    shares = norms[:-1] ** 2 / total_sq if total_sq > 0 else np.zeros(count)
    entries = tuple(
        PartEntry(label, parts.PARTS[name].dim, norm, share,
                  Tensor3._trusted(array, t.variance, t.parity))
        for (label, name), norm, share, array in zip(named, norms.tolist(), shares.tolist(), arrays)
    )
    return DecompositionReport(
        level=level if mode == "generic" else "o3",
        mode=mode,
        family=family,
        input_summary={
            "norm": float(norms[-1]),
            "symmetry_class": classify_symmetry(t),
            "variance": t.variance,
            "parity": t.parity,
        },
        parts=entries,
        gram=gram[:-1, :-1],
        residual=max_abs(x - arrays[:count].sum(axis=0)),
        pseudo_scalar=pseudo_scalar_of(x) if shape in _PSEUDO_SCALAR_SHAPES else None,
    )
