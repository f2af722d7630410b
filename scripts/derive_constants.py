#!/usr/bin/env python3
"""Regenerate every frozen reconstruction constant and FORMULA_NOTES.txt.

The constants shipped in ``trideco.sl3``, ``trideco.so3`` and
``trideco.constitutive`` are not hand-copied values; each is the unique
solution of defining linear relations, solved here over the full component
basis.  Run this script after touching any of the contraction conventions
and compare its output against the frozen values.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trideco import constitutive, gl3, oracle, sl3, so3  # noqa: E402
from trideco.tensor import EUCLIDEAN, Metric, Tensor3  # noqa: E402

DIAG = Metric(np.diag([2.0, 1.0, 1.0]))


def axial_constants(metric):
    """Proportionality of the skew matrix halves to the trace vectors."""
    rng = np.random.default_rng(4)
    ratios_b, ratios_c = [], []
    for _ in range(10):
        t = Tensor3(rng.uniform(-1, 1, (3, 3, 3)))
        parts = sl3.epsilon_contractions(t)
        n1, n2 = gl3.n_split(t, "plain")
        beta = np.einsum("ij,ijk->k", metric.g, n1.components)
        gamma = np.einsum("ij,ikj->k", metric.g, n2.components)
        b_low = np.einsum("nm,im->in", metric.g, parts.b_check.components)
        c_low = np.einsum("nm,im->in", metric.g, parts.c_check.components)
        b_axial = np.einsum("ijk,ij->k", sl3.EPSILON, (b_low - b_low.T) / 2.0)
        c_axial = np.einsum("ijk,ij->k", sl3.EPSILON, (c_low - c_low.T) / 2.0)
        ratios_b.append(np.linalg.lstsq(beta.reshape(-1, 1), b_axial, rcond=None)[0][0])
        ratios_c.append(np.linalg.lstsq(gamma.reshape(-1, 1), c_axial, rcond=None)[0][0])
    return float(np.mean(ratios_b)), float(np.std(ratios_b)), \
        float(np.mean(ratios_c)), float(np.std(ratios_c))


def skew_parametrizations(metric):
    rng = np.random.default_rng(5)
    piezo_ratios, hall_ratios = [], []
    for _ in range(10):
        arr = rng.uniform(-1, 1, (3, 3, 3))
        d = constitutive.PiezoTensor(Tensor3((arr + np.transpose(arr, (0, 2, 1))) / 2))
        parts = constitutive.piezo_decompose(d, metric)
        basis = np.einsum("prs,s->pr", sl3.EPSILON, parts.beta.components).reshape(-1)
        piezo_ratios.append(
            np.linalg.lstsq(basis.reshape(-1, 1), parts.b_skew.components.reshape(-1),
                            rcond=None)[0][0]
        )
        arr = rng.uniform(-1, 1, (3, 3, 3))
        h = constitutive.HallTensor(Tensor3((arr - np.transpose(arr, (1, 0, 2))) / 2, "lower"))
        hparts = constitutive.hall_decompose(h, metric)
        basis = np.einsum("prs,s->pr", sl3.EPSILON, hparts.v_vec.components).reshape(-1)
        hall_ratios.append(
            np.linalg.lstsq(basis.reshape(-1, 1), hparts.a_skew.components.reshape(-1),
                            rcond=None)[0][0]
        )
    return float(np.mean(piezo_ratios)), float(np.mean(hall_ratios))


def trace_weights(metric):
    """The slot weights that place a tensor's traces back as its pure-trace part.

    Solves for the 3x3 ``w`` with ``x - sum_a place_a(sum_b w[a, b] t_b)``
    traceless for all 27 basis tensors ``x``, where ``t_b`` are the traces
    of ``x`` over the pairs (1,2), (1,3), (2,3) and ``place_a`` puts a vector
    in slot ``a`` and the inverse metric on the other two.  Returns the
    weights and the rank of the system.
    """
    def traces(x):
        return [np.einsum(s, metric.g, x) for s in ("ij,ijk->k", "ij,ikj->k", "ij,kij->k")]

    def place(v, slot):
        return np.einsum(("i,jk->ijk", "j,ik->ijk", "k,ij->ijk")[slot], v, metric.g_inv)

    features, targets = [], []
    for x in np.eye(27).reshape(27, 3, 3, 3):
        t = traces(x)
        features.append(
            np.stack([np.concatenate(traces(place(t[b], a))) for a in range(3) for b in range(3)],
                     axis=1)
        )
        targets.append(np.concatenate(t))
    weights, _, system_rank, _ = np.linalg.lstsq(
        np.concatenate(features), np.concatenate(targets), rcond=None
    )
    return weights.reshape(3, 3), int(system_rank)


def main() -> int:
    print("reconstruction solves (least squares over the full basis):")
    for system, labels, shipped, _ in oracle.SHIPPED_CONSTANTS:
        solve = oracle.solve_reconstruction(system)
        print(f"  {system:<22} {dict(zip(labels, np.round(solve.coefficients, 12)))}"
              f"  residual {solve.residual:.2e}")
        assert np.max(np.abs(solve.coefficients - np.array(shipped))) < 1e-10, system

    for metric, tag in ((EUCLIDEAN, "euclidean"), (DIAG, "diag(2,1,1)")):
        mb, sb, mc, sc = axial_constants(metric)
        print(f"axial constants ({tag}): first {mb:+.12f} (spread {sb:.1e}), "
              f"second {mc:+.12f} (spread {sc:.1e})")
        assert abs(mb - so3.AXIAL_FROM_FIRST_TRACE) < 1e-10
        assert abs(mc - so3.AXIAL_FROM_SECOND_TRACE) < 1e-10
        pz, hl = skew_parametrizations(metric)
        print(f"skew parametrizations ({tag}): pair-symmetric {pz:+.12f}, "
              f"pair-antisymmetric {hl:+.12f}")
        assert abs(pz - constitutive.PIEZO_SKEW_FROM_TRACE) < 1e-10
        assert abs(hl - constitutive.HALL_SKEW_FROM_TRACE) < 1e-10

        weights, system_rank = trace_weights(metric)
        print(f"trace weights ({tag}, rank {system_rank}): "
              f"{np.round(weights * 10, 12).tolist()} / 10")

    notes_path = Path(__file__).resolve().parent.parent / "FORMULA_NOTES.txt"
    oracle.write_formula_notes(notes_path)
    print(f"wrote {notes_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
