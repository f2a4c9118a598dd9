"""Tests for model save/load (format v2: checksummed envelope)."""

import pickle

import numpy as np
import pytest

from repro.core import deepmap_gk, deepmap_sp, deepmap_wl
from repro.core.persistence import (
    ModelPersistenceError,
    load_model,
    save_model,
)
from repro.nn.module import Layer, Parameter
from repro.utils.wire import blake2b_hexdigest

FACTORIES = {
    "wl": lambda: deepmap_wl(h=1, r=3, epochs=3, seed=0),
    "sp": lambda: deepmap_sp(r=3, epochs=3, seed=0),
    "gk": lambda: deepmap_gk(k=4, samples=6, r=3, epochs=3, seed=0),
}


@pytest.fixture(scope="module")
def fitted_models(small_dataset_module):
    graphs, y = small_dataset_module
    return {name: make().fit(graphs, y) for name, make in FACTORIES.items()}


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.graph import ensure_connected, erdos_renyi

    rng = np.random.default_rng(42)
    graphs, labels = [], []
    for i in range(12):
        g = erdos_renyi(8, 0.25 if i % 2 == 0 else 0.6, rng)
        g = ensure_connected(g, rng)
        graphs.append(g.with_labels((np.arange(8) % 3).tolist()))
        labels.append(i % 2)
    return graphs, np.array(labels)


class TestPersistence:
    def test_roundtrip_predictions_identical(self, small_dataset, tmp_path):
        graphs, y = small_dataset
        model = deepmap_wl(h=1, r=3, epochs=3, seed=0).fit(graphs, y)
        path = tmp_path / "model.pkl"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(model.predict(graphs), restored.predict(graphs))
        assert np.allclose(model.transform(graphs), restored.transform(graphs))

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_roundtrip_proba_bitwise_per_extractor(
        self, name, fitted_models, small_dataset_module, tmp_path
    ):
        """Every extractor family survives save/load with *bitwise* equal
        probabilities — the property the serving registry relies on."""
        graphs, _ = small_dataset_module
        model = fitted_models[name]
        path = tmp_path / f"{name}.pkl"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_array_equal(
            model.predict_proba(graphs), restored.predict_proba(graphs)
        )

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_model(deepmap_wl(), tmp_path / "x.pkl")


class TestTrainingScratch:
    """A model file holds weights, vocabulary and encoder state — not the
    forward caches and gradients of the last training mini-batch."""

    def test_pickle_carries_no_scratch(
        self, fitted_models, small_dataset_module, monkeypatch
    ):
        model = fitted_models["wl"]
        model.predict_proba(small_dataset_module[0])  # fresh inference caches
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        param_bytes = sum(p.value.nbytes for p in model.network_.parameters())
        assert len(blob) < param_bytes + 16 * 1024

        layer_states, param_states = [], []
        layer_setstate, param_setstate = Layer.__setstate__, Parameter.__setstate__

        def record_layer(self, state):
            layer_states.append(state)
            layer_setstate(self, state)

        def record_param(self, state):
            param_states.append(state)
            param_setstate(self, state)

        monkeypatch.setattr(Layer, "__setstate__", record_layer)
        monkeypatch.setattr(Parameter, "__setstate__", record_param)
        pickle.loads(blob)
        assert layer_states and param_states
        for state in layer_states:
            arrays = {k for k, v in state.items() if isinstance(v, np.ndarray)}
            assert arrays <= {"running_mean", "running_var"}, arrays
        assert all(set(state) == {"value", "name"} for state in param_states)

    def test_file_with_pickled_scratch_still_loads(
        self, fitted_models, small_dataset_module, tmp_path, monkeypatch
    ):
        """Files written before scratch was dropped carry the caches and
        slot-state gradients; they load and predict bitwise the same."""
        graphs, _ = small_dataset_module
        model = fitted_models["wl"]
        model.predict_proba(graphs)
        monkeypatch.setattr(Layer, "__getstate__", lambda self: self.__dict__)
        monkeypatch.setattr(
            Parameter,
            "__getstate__",
            lambda self: (
                None,
                {"value": self.value, "grad": self.grad, "name": self.name},
            ),
        )
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        param_bytes = sum(p.value.nbytes for p in model.network_.parameters())
        assert len(blob) > 2 * param_bytes  # really carries the scratch
        path = tmp_path / "with-scratch.pkl"
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format_version": 2,
                    "checksum": blake2b_hexdigest([blob]),
                    "model_bytes": blob,
                },
                fh,
            )
        restored = load_model(path)
        conv = restored.network_.layers[0]
        assert conv._cols is None  # let go at load
        assert not conv.weight.grad.any()
        np.testing.assert_array_equal(
            model.predict_proba(graphs), restored.predict_proba(graphs)
        )


class TestEnvelope:
    def test_saved_file_is_a_v2_checksummed_envelope(
        self, fitted_models, tmp_path
    ):
        path = tmp_path / "model.pkl"
        save_model(fitted_models["wl"], path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        assert payload["format_version"] == 2
        assert isinstance(payload["model_bytes"], bytes)
        assert isinstance(payload["checksum"], str) and payload["checksum"]

    def test_legacy_v1_file_still_loads(self, fitted_models, tmp_path):
        path = tmp_path / "v1.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format_version": 1, "model": fitted_models["wl"]}, fh)
        restored = load_model(path)
        assert restored.classes_ is not None

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format_version": 999, "model": None}, fh)
        with pytest.raises(ModelPersistenceError, match="version"):
            load_model(path)

    def test_future_version_error_names_supported_range(self, tmp_path):
        path = tmp_path / "future.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format_version": 3, "model_bytes": b""}, fh)
        with pytest.raises(ModelPersistenceError, match="versions 1..2"):
            load_model(path)

    def test_wrong_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format_version": 1, "model": 42}, fh)
        with pytest.raises(ValueError, match="DeepMapClassifier"):
            load_model(path)

    def test_v2_non_model_payload_rejected(self, tmp_path):
        path = tmp_path / "bad2.pkl"
        blob = pickle.dumps([1, 2, 3])
        from repro.resilience.checkpoint import blake2b_hexdigest

        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format_version": 2,
                    "checksum": blake2b_hexdigest([blob]),
                    "model_bytes": blob,
                },
                fh,
            )
        with pytest.raises(ModelPersistenceError, match="DeepMapClassifier"):
            load_model(path)


class TestCorruption:
    @pytest.fixture
    def saved(self, fitted_models, tmp_path):
        path = tmp_path / "model.pkl"
        save_model(fitted_models["wl"], path)
        return path

    def test_flipped_payload_byte_fails_checksum(self, saved, tmp_path):
        with open(saved, "rb") as fh:
            payload = pickle.load(fh)
        blob = bytearray(payload["model_bytes"])
        blob[len(blob) // 2] ^= 0xFF
        payload["model_bytes"] = bytes(blob)
        corrupt = tmp_path / "corrupt.pkl"
        with open(corrupt, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(ModelPersistenceError, match="checksum mismatch"):
            load_model(corrupt)

    def test_truncated_file_rejected(self, saved, tmp_path):
        data = saved.read_bytes()
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelPersistenceError):
            load_model(truncated)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"\x00\x01not a pickle at all")
        with pytest.raises(ModelPersistenceError):
            load_model(path)

    def test_non_dict_pickle_rejected(self, tmp_path):
        path = tmp_path / "list.pkl"
        with open(path, "wb") as fh:
            pickle.dump([1, 2, 3], fh)
        with pytest.raises(ModelPersistenceError, match="not a DeepMap model"):
            load_model(path)
