"""Tests for utility modules: rng, registry, serialization, logging, validation."""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.analysis.lockorder import lock_check_enabled
from repro.runtime import runtime_enabled
from repro.runtime.executor import _trace_ops_enabled
from repro.utils import (
    MetricLogger,
    Registry,
    check_in_choices,
    check_ndim,
    check_non_negative,
    check_positive,
    check_probability,
    global_rng,
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
    seed_everything,
    spawn_rng,
)


class TestRNG:
    def test_seed_everything_reproducible(self):
        seed_everything(12)
        a = global_rng().random(5)
        seed_everything(12)
        b = global_rng().random(5)
        assert np.allclose(a, b)

    def test_spawn_rng_independent_streams(self):
        seed_everything(12)
        a = spawn_rng()
        b = spawn_rng()
        assert not np.allclose(a.random(10), b.random(10))

    def test_spawn_rng_with_explicit_seed(self):
        assert np.allclose(spawn_rng(3).random(4), spawn_rng(3).random(4))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            seed_everything(-1)


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("thing")

        @registry.register("alpha")
        def make_alpha(value=1):
            return ("alpha", value)

        assert "alpha" in registry
        assert registry.create("alpha", value=2) == ("alpha", 2)

    def test_duplicate_name_rejected(self):
        registry = Registry("thing")
        registry.register("x", lambda: 1)
        with pytest.raises(KeyError):
            registry.register("x", lambda: 2)

    def test_lookup_is_case_insensitive(self):
        registry = Registry("thing")
        registry.register("Alpha", lambda: 1)
        assert registry.create("ALPHA") == 1

    def test_unknown_name_lists_available(self):
        registry = Registry("thing")
        registry.register("a", lambda: 1)
        with pytest.raises(KeyError, match="available"):
            registry.get("b")

    def test_names_sorted(self):
        registry = Registry("thing")
        registry.register("b", lambda: 1)
        registry.register("a", lambda: 1)
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2


class TestSerialization:
    def test_state_dict_roundtrip(self, tmp_path):
        state = {"w": np.random.default_rng(0).random((3, 3)), "b": np.zeros(3)}
        path = tmp_path / "model.npz"
        save_state_dict(path, state)
        loaded = load_state_dict(path)
        assert set(loaded) == {"w", "b"}
        assert np.allclose(loaded["w"], state["w"])

    def test_state_dict_suffix_added(self, tmp_path):
        path = tmp_path / "checkpoint"
        save_state_dict(path, {"x": np.ones(2)})
        loaded = load_state_dict(path)
        assert np.allclose(loaded["x"], 1.0)

    def test_json_roundtrip_with_numpy_values(self, tmp_path):
        payload = {"accuracy": np.float32(0.93), "series": np.arange(3), "nested": {"k": 1}}
        path = tmp_path / "result.json"
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["accuracy"] == pytest.approx(0.93, rel=1e-6)
        assert loaded["series"] == [0, 1, 2]
        assert loaded["nested"] == {"k": 1}


class TestMetricLogger:
    def test_series_recorded_in_order(self):
        logger = MetricLogger("test")
        logger.log(step=0, loss=1.0)
        logger.log(step=1, loss=0.5)
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.latest("loss") == 0.5

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricLogger("test").latest("loss")

    def test_as_dict_copies(self):
        logger = MetricLogger("test")
        logger.log(loss=1.0)
        exported = logger.as_dict()
        exported["loss"].append(99.0)
        assert logger.series("loss") == [1.0]

    def test_elapsed_non_negative(self):
        assert MetricLogger("test").elapsed() >= 0.0


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.2)

    def test_check_in_choices(self):
        assert check_in_choices("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError):
            check_in_choices("mode", "c", ("a", "b"))

    def test_check_ndim(self):
        array = check_ndim("x", [[1, 2]], 2)
        assert array.shape == (1, 2)
        with pytest.raises(ValueError):
            check_ndim("x", [1, 2], 2)


# The three boolean REPRO_* switches, each through the function that reads it.
_ENV_SWITCHES = {
    "REPRO_RUNTIME": (runtime_enabled, True),
    "REPRO_TRACE_OPS": (_trace_ops_enabled, False),
    "REPRO_LOCK_CHECK": (lock_check_enabled, False),
}


@pytest.mark.parametrize("name", sorted(_ENV_SWITCHES))
@pytest.mark.parametrize(
    "raw, expected",
    [(None, "default"), ("1", True), ("TRUE", True), (" on ", True),
     ("0", False), ("No", False), ("garbage", ValueError)],
)
def test_boolean_switches_share_one_vocabulary(name, raw, expected, monkeypatch):
    read, default = _ENV_SWITCHES[name]
    if raw is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, raw)
    if expected is ValueError:
        with pytest.raises(ValueError, match=name):
            read()
    else:
        assert read() is (default if expected == "default" else expected)


def test_env_surface_is_four_flags():
    """Every environment read in ``src/`` is one of four literal
    ``env_flag(name, default)`` calls — the table in docs/ARCHITECTURE.md,
    enumerated from the code — and nothing else touches ``os.environ`` but
    the parser itself and the replica pool's BLAS-thread pin at spawn."""
    root = pathlib.Path(repro.__file__).parent
    flags, touching = {}, set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == "env_flag":
                    name, default = node.args
                    assert isinstance(name, ast.Constant), (path, node.lineno)
                    assert isinstance(default, ast.Constant), (path, node.lineno)
                    assert name.value not in flags, name.value  # read in ONE place
                    flags[name.value] = default.value
            elif isinstance(node, ast.Attribute):
                if node.attr in ("environ", "getenv"):
                    touching.add(path.relative_to(root).as_posix())
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {alias.name for alias in node.names} & {"environ", "getenv"}:
                    touching.add(path.relative_to(root).as_posix())
    assert flags == {
        "REPRO_RUNTIME": True,
        "REPRO_TRACE_OPS": False,
        "REPRO_LOCK_CHECK": False,
        "REPRO_FLOAT64": False,
    }
    assert touching == {"utils/validation.py", "serve/replica.py"}
