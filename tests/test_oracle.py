import numpy as np
import pytest
from numpy.testing import assert_allclose

from trideco import constitutive, gl3, o3, oracle, parts, so3
from trideco.tensor import EUCLIDEAN, Metric, Tensor3

DIAG_METRIC = Metric(np.diag([2.0, 1.0, 1.0]))
METRICS = [EUCLIDEAN, DIAG_METRIC]
METRIC_IDS = ["euclid", "diag211"]


def _piezo(x, metric):
    d = constitutive.PiezoTensor(Tensor3((x + np.transpose(x, (0, 2, 1))) / 2.0))
    return constitutive.piezo_decompose(d, metric)


def _hall(x, metric):
    h = constitutive.HallTensor(Tensor3((x - np.transpose(x, (1, 0, 2))) / 2.0, "lower"))
    return constitutive.hall_decompose(h, metric)


def _o3_split(x, metric, position):
    t = Tensor3(x)
    if position < 2:
        return o3.s_trace_split(gl3.symmetric_part(t), metric)[position]
    return o3.n_trace_split(gl3.residue_part(t), metric)[position - 2]


def _family_split(x, metric, position):
    return o3.n_family_trace_split(*gl3.n_split(Tensor3(x), "plain"), metric)[position]


#: public calls returning each ledger part of the components ``x``
PUBLIC_CALLS = {
    "identity": [lambda x, m: so3.reassemble(so3.so3_representation(Tensor3(x), m), m)],
    "symmetric": [lambda x, m: gl3.symmetric_part(Tensor3(x)),
                  lambda x, m: gl3.decompose(Tensor3(x), "plain").s],
    "antisymmetric": [lambda x, m: gl3.antisymmetric_part(Tensor3(x)),
                      lambda x, m: o3.decompose(Tensor3(x), m).a],
    "residue": [lambda x, m: gl3.residue_part(Tensor3(x)),
                lambda x, m: gl3.decompose(Tensor3(x), "hat").n],
    **{
        f"n{member + 1}_{family}": [
            lambda x, m, f=family, i=member: gl3.n_split(Tensor3(x), f)[i],
            lambda x, m, f=family, i=member: getattr(gl3.decompose(Tensor3(x), f), f"n{i + 1}"),
        ]
        for family in gl3.FAMILIES
        for member in (0, 1)
    },
    **{
        name: [lambda x, m, i=position: _o3_split(x, m, i),
               lambda x, m, f=name: getattr(o3.decompose(Tensor3(x), m), f)]
        for position, name in enumerate(["k_part", "r_part", "m_part", "p_part"])
    },
    **{
        name: [lambda x, m, i=position: _family_split(x, m, i)]
        for position, name in enumerate(["m1_part", "p1_part", "m2_part", "p2_part"])
    },
    **{
        f"piezo_{suffix}": [lambda x, m, f=field: getattr(_piezo(x, m), f)]
        for suffix, field in [("s", "s"), ("n", "n"), ("k", "k_part"), ("r", "r_part"),
                              ("m", "m_part"), ("p", "p_part")]
    },
    **{
        f"hall_{suffix}": [lambda x, m, f=field: getattr(_hall(x, m), f)]
        for suffix, field in [("a", "a"), ("n", "n"), ("m", "m_part"), ("p", "p_part")]
    },
}


class TestMaterialize:
    def test_identity(self):
        lm = oracle.materialize("identity")
        assert_allclose(lm.matrix, np.eye(27))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            oracle.materialize("no-such-op")

    def test_residue_matrix_is_complement(self):
        identity = oracle.materialize("identity").matrix
        sym = oracle.materialize("symmetric").matrix
        anti = oracle.materialize("antisymmetric").matrix
        residue = oracle.materialize("residue").matrix
        assert np.max(np.abs(residue - (identity - sym - anti))) < 1e-14

    def test_apply_matches_operation(self, rng):
        lm = oracle.materialize("symmetric")
        arr = rng.uniform(-1, 1, (3, 3, 3))
        from trideco.tensor import Tensor3

        assert_allclose(
            lm.apply(arr), gl3.symmetric_part(Tensor3(arr)).components, atol=1e-14
        )


class TestRank:
    def test_full_ledger(self):
        mismatches = [
            (name, measured, expected)
            for name, measured, expected in oracle.dimension_report()
            if measured != expected
        ]
        assert mismatches == []

    def test_ledger_with_non_euclidean_metric(self):
        for name in ("k_part", "r_part", "m_part", "p_part", "piezo_m", "hall_p"):
            lm = oracle.materialize(name, DIAG_METRIC)
            assert oracle.rank(lm) == oracle.DIMENSION_LEDGER[name]

    def test_zero_matrix(self):
        assert oracle.rank(oracle.LinearMap27(np.zeros((27, 27)), "zero")) == 0

    def test_gap_guard_trips_on_ambiguous_spectrum(self):
        diag = np.zeros(27)
        diag[0] = 1.0
        diag[1] = 2e-9
        diag[2] = 5e-10
        lm = oracle.LinearMap27(np.diag(diag), "ambiguous")
        with pytest.raises(ArithmeticError):
            oracle.rank(lm)


class TestProjectors:
    def test_symmetric_is_projector(self):
        report = oracle.verify_projector(oracle.materialize("symmetric"))
        assert report.is_projector and report.rank == 10

    def test_three_way_resolution(self):
        family = [
            oracle.materialize(name)
            for name in ("symmetric", "antisymmetric", "residue")
        ]
        result = oracle.verify_projector_family(family)
        assert result.is_resolution

    def test_five_way_resolution(self):
        family = [
            oracle.materialize(name)
            for name in ("k_part", "r_part", "antisymmetric", "m_part", "p_part")
        ]
        result = oracle.verify_projector_family(family)
        assert result.is_resolution

    def test_branch_pair_resolves_the_mixed_projector(self):
        residue = oracle.materialize("residue").matrix
        pair = [oracle.materialize("n1_plain"), oracle.materialize("n2_plain")]
        for member in pair:
            assert oracle.verify_projector(member).is_projector
        total = pair[0].matrix + pair[1].matrix
        assert np.max(np.abs(total - residue)) < 1e-13
        # the two branch projectors do not annihilate each other, so this
        # pair is a direct-sum split without being an orthogonal one
        result = oracle.verify_projector_family(pair, target=residue)
        assert result.completeness_defect < 1e-13


class TestSolves:
    @pytest.mark.parametrize(
        "system,expected",
        [
            ("n1_from_matrix", (-1.0 / 3.0, -1.0 / 3.0, 0.0)),
            ("n2_from_matrix", (-1.0 / 3.0, 0.0, -1.0 / 3.0)),
            ("k_from_trace", (0.2,)),
            ("m1_from_trace", (-0.25, 0.5)),
            ("piezo_n_from_matrix", (1.0 / 3.0,)),
            ("hall_n_from_matrix", (1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)),
            ("first_skew_from_trace", (-0.75,)),
            ("second_skew_from_trace", (0.75,)),
            ("piezo_skew_from_trace", (-0.75,)),
            ("hall_skew_from_trace", (-0.5,)),
            ("trace_weights", (-0.1, -0.1, 0.4, -0.1, 0.4, -0.1, 0.4, -0.1, -0.1)),
        ],
    )
    def test_coefficients(self, system, expected):
        solve = oracle.solve_reconstruction(system)
        assert_allclose(solve.coefficients, expected, atol=1e-10)
        assert solve.residual < 1e-10

    def test_first_branch_structure(self):
        solve = oracle.solve_reconstruction("n1_from_matrix")
        x, y, z = solve.coefficients
        assert abs(z) < 1e-12
        assert x == pytest.approx(y, abs=1e-12)
        # two of the three candidate terms are independent on traceless input
        assert solve.system_rank == 2

    def test_solves_respect_the_metric(self):
        for system in ("k_from_trace", "m1_from_trace"):
            solve = oracle.solve_reconstruction(system, DIAG_METRIC)
            assert solve.residual < 1e-10

    @pytest.mark.parametrize("row", range(len(oracle.SHIPPED_CONSTANTS)))
    def test_a_wrong_shipped_constant_fails_its_solve(self, monkeypatch, row):
        # ten times the solve bound off, in one row at a time
        table = list(oracle.SHIPPED_CONSTANTS)
        system, labels, shipped, quoted = table[row]
        table[row] = (system, labels, tuple(c + 10 * oracle.SOLVE_TOL for c in shipped), quoted)
        monkeypatch.setattr(oracle, "SHIPPED_CONSTANTS", tuple(table))
        assert oracle.self_check(0)["failures"] == [f"solve {system}"]

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            oracle.solve_reconstruction("mystery")


class TestAgreement:
    def test_every_operator_agrees_with_its_matrix(self):
        for name in oracle.operator_names():
            assert oracle.agreement(name, seed=0, samples=100) < 1e-12

    def test_agreement_under_non_euclidean_metric(self):
        for name in ("m_part", "piezo_p", "hall_m"):
            assert oracle.agreement(name, DIAG_METRIC, seed=1, samples=50) < 1e-12

    @pytest.mark.parametrize("seed", [0, 12345])
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_one_walk_per_tensor_matches_a_walk_per_part(self, metric, seed):
        # the reference: a walk of each part alone on each block of drawn tensors
        arrays = np.random.default_rng(seed).uniform(-1.0, 1.0, (100, 3, 3, 3))
        blocks = range(0, 100, oracle._BLOCK)
        expected = {}
        for name in oracle.operator_names():
            matrix = oracle.materialize(name, metric).matrix
            images = (arrays.reshape(100, 27) @ matrix.T).reshape(100, 3, 3, 3)
            expected[name] = max(
                float(np.max(np.abs(images[start:start + oracle._BLOCK] - parts.evaluate(
                    (name,), arrays[start:start + oracle._BLOCK], metric)[0])))
                for start in blocks)
        assert oracle.agreements(oracle.operator_names(), metric, seed) == expected

    def test_a_deviation_that_is_not_finite_stays_failed(self, monkeypatch):
        # a NaN in the first block must survive the later, finite ones
        walk = oracle.evaluate
        walked = []

        def first_walk_nan(names, x, metric):
            values = walk(names, x, metric)
            walked.append(len(x))
            return [np.full_like(value, np.nan) if len(walked) == 1 and name == "k_part"
                    else value for name, value in zip(names, values)]

        monkeypatch.setattr(oracle, "evaluate", first_walk_nan)
        worst = oracle.agreements(("symmetric", "k_part"), samples=45)
        assert walked == [20, 20, 5]
        assert worst["symmetric"] < 1e-12 and np.isnan(worst["k_part"])

    @pytest.mark.parametrize("samples", [0, -3])
    def test_an_agreement_needs_a_drawn_tensor(self, samples):
        with pytest.raises(ValueError, match="at least one drawn tensor"):
            oracle.agreement("k_part", samples=samples)

    def test_the_self_check_walks_each_block_once_and_reassembles_once(self, monkeypatch):
        calls = {"evaluate": 0, "reassemble": 0}

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)
            return call

        monkeypatch.setattr(oracle, "evaluate", counted("evaluate", oracle.evaluate))
        monkeypatch.setattr(so3, "reassemble", counted("reassemble", so3.reassemble))
        assert oracle.self_check(0)["failures"] == []
        assert calls == {"evaluate": 5, "reassemble": 1}


class TestPublicCalls:
    def test_every_ledger_part_has_a_public_call(self):
        assert set(PUBLIC_CALLS) == set(oracle.DIMENSION_LEDGER)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    @pytest.mark.parametrize("name", list(PUBLIC_CALLS))
    def test_public_call_agrees_with_its_matrix(self, rng, metric, name):
        linear_map = oracle.materialize(name, metric)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, (3, 3, 3))
            for call in PUBLIC_CALLS[name]:
                assert_allclose(call(x, metric).components, linear_map.apply(x), atol=1e-12)


class TestSampling:
    def test_generic_tensor_has_nonzero_parts(self, rng):
        t = oracle.generic_tensor(rng)
        assert np.linalg.norm(gl3.antisymmetric_part(t).components) >= 1e-3
        for family in gl3.FAMILIES:
            n1, n2 = gl3.n_split(t, family)
            assert np.linalg.norm(n1.components) >= 1e-3
            assert np.linalg.norm(n2.components) >= 1e-3


class TestFormulaNotes:
    def test_mentions_every_system(self):
        text = oracle.formula_notes()
        for system, _, _, _ in oracle.SHIPPED_CONSTANTS:
            assert system in text

    def test_flags_the_disputed_constants(self):
        text = oracle.formula_notes()
        assert text.count("hand derivation") >= 2
        assert "minimum-norm" in text

    def test_write(self, tmp_path):
        path = tmp_path / "FORMULA_NOTES.txt"
        oracle.write_formula_notes(path)
        assert path.read_text().startswith("FORMULA NOTES")
