import numpy as np
import pytest

from fisym.designs import OperatorSet, sic_d3, sic_qubit
from fisym.opfile import (
    json_to_matrix,
    load_json,
    matrix_to_json,
    obj_to_operator_set,
    obj_to_povm,
    obj_to_state_set,
    operator_set_to_obj,
    povm_to_obj,
    save_json,
    state_set_to_obj,
)
from fisym.povm import collective_sic_qubit, twocopy_design_povm


class TestMatrixCodec:
    def test_roundtrip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)

    def test_malformed_entries(self):
        with pytest.raises(ValueError):
            json_to_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            json_to_matrix([[[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]])

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            json_to_matrix([[[1.0, 0.0], [0.0, x]], [[0.0, 0.0], [1.0, 0.0]]])


class TestPovmFiles:
    def test_roundtrip_preserves_elements(self):
        p = collective_sic_qubit()
        q = obj_to_povm(povm_to_obj(p))
        assert q.copies == 2 and q.base_dim == 2 and q.subspace is None
        for a, b in zip(p.elements, q.elements):
            assert np.array_equal(a, b)

    def test_subspace_field_roundtrip(self):
        p = twocopy_design_povm(sic_qubit())
        obj = povm_to_obj(p)
        assert obj["subspace"] == "symmetric"
        assert obj_to_povm(obj).subspace == "symmetric"

    def test_missing_field_rejected(self):
        obj = povm_to_obj(collective_sic_qubit())
        del obj["copies"]
        with pytest.raises(ValueError):
            obj_to_povm(obj)

    @pytest.mark.parametrize("field", ["dim", "copies"])
    @pytest.mark.parametrize("value", [None, [2], "two", float("inf"), 2.5,
                                       "2", True])
    def test_bad_header_value_rejected(self, field, value):
        # a two-copy POVM file and a single-copy state-set file
        for obj, loaders in [
                (povm_to_obj(collective_sic_qubit()),
                 (obj_to_povm, obj_to_operator_set)),
                (state_set_to_obj(sic_qubit()),
                 (obj_to_state_set, obj_to_operator_set))]:
            obj[field] = value
            for load in loaders:
                with pytest.raises(ValueError):
                    load(obj)

    def test_integral_float_header_accepted(self):
        p = collective_sic_qubit()
        obj = povm_to_obj(p)
        obj.update(dim=2.0, copies=2.0)
        q = obj_to_povm(obj)
        assert (q.base_dim, q.copies) == (2, 2)
        assert povm_to_obj(q) == povm_to_obj(p)

    @pytest.mark.parametrize("header", [{"dim": 3}, {"copies": 2},
                                        {"copies": 10 ** 9}])
    def test_header_must_match_matrices(self, header):
        obj = state_set_to_obj(sic_qubit())
        obj.update(header)
        for load in (obj_to_povm, obj_to_state_set, obj_to_operator_set):
            with pytest.raises(ValueError):
                load(obj)

    @pytest.mark.parametrize("entry", [{}, {"weight": 0.5}, [], 1.0, None])
    def test_element_without_matrix_rejected(self, entry):
        obj = state_set_to_obj(sic_qubit())
        obj["elements"][0] = entry
        for load in (obj_to_povm, obj_to_state_set, obj_to_operator_set):
            with pytest.raises(ValueError):
                load(obj)

    def test_empty_elements_rejected(self):
        obj = povm_to_obj(collective_sic_qubit())
        obj["elements"] = []
        with pytest.raises(ValueError):
            obj_to_povm(obj)


class TestStateSetFiles:
    @pytest.mark.parametrize("design", [sic_qubit(), sic_d3(0.2)])
    def test_roundtrip_projectors_and_weights(self, design):
        back = obj_to_state_set(state_set_to_obj(design))
        assert np.allclose(back.weights, design.weights)
        for u, v in zip(back.vectors, design.vectors):
            # global phase is not stored; compare projectors
            assert np.allclose(np.outer(u, u.conj()), np.outer(v, v.conj()),
                               atol=1e-12)

    def test_non_rank_one_rejected(self):
        obj = state_set_to_obj(sic_qubit())
        obj["elements"][0]["matrix"] = matrix_to_json(np.eye(2) / 2)
        with pytest.raises(ValueError):
            obj_to_state_set(obj)

    def test_non_hermitian_rejected(self):
        # its lower triangle is the projector onto |0>, all that eigh reads
        obj = state_set_to_obj(sic_qubit())
        obj["elements"][0]["matrix"] = matrix_to_json(
            np.array([[1.0, 0.7], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            obj_to_state_set(obj)

    def test_missing_weight_rejected(self):
        obj = state_set_to_obj(sic_qubit())
        del obj["elements"][0]["weight"]
        with pytest.raises(ValueError):
            obj_to_state_set(obj)

    @pytest.mark.parametrize("weight", [None, [0.5], float("nan"),
                                        float("inf")])
    def test_bad_weight_rejected(self, weight):
        obj = state_set_to_obj(sic_qubit())
        obj["elements"][0]["weight"] = weight
        with pytest.raises(ValueError):
            obj_to_state_set(obj)


class TestOperatorSetFiles:
    def test_roundtrip(self):
        ops = OperatorSet(tuple(p + 0.5 * np.eye(2)
                                for p in sic_qubit().projectors()))
        back = obj_to_operator_set(operator_set_to_obj(ops))
        for a, b in zip(back.elements, ops.elements):
            assert np.array_equal(a, b)


class TestFileRoundTrip:
    def test_export_import_export_is_byte_identical(self, tmp_path):
        p = collective_sic_qubit()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_json(povm_to_obj(p), first)
        save_json(povm_to_obj(obj_to_povm(load_json(first))), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_finite_values_are_not_written(self, tmp_path):
        # NaN is not JSON; nothing is written rather than a partial file
        path = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            save_json({"dim": 2, "x": float("nan")}, path)
        assert not path.exists()

    def test_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "p.json"
        save_json(povm_to_obj(collective_sic_qubit()), path)
        assert path.read_bytes().endswith(b"\n")
