"""RunConfig contract suite: validation, round-trips, threading.

Covers the tentpole contracts of :mod:`repro.config`:

* construction-time validation — every field checked, unknown and
  conflicting keys rejected *by name*;
* ``from_dict(to_dict())`` identity and JSON round-tripping with the
  same strictness as the serving front-end;
* presets — ``fast()`` is the dataclass defaults (``default()`` too),
  and ``oracle()`` the defaults plus the paper-faithful axes;
* engine-kwarg resolution: explicit overrides beat the config, and the
  per-bit fault-domain oracle coerces sampling to dense instead of
  erroring on an implicit sparse default;
* the CLI: every field is a ``--<field>`` flag, derived from the
  dataclass (a subclass's extra field included);
* the config actually *reaches* every layer: engine construction,
  ``run_app``, the JSON front-end's ``config`` request key (worker-
  observed engine settings), and the ``stats()`` echo.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro import RunConfig, cli
from repro.apps import run_app
from repro.apps.executor import run_tiled
from repro.apps.filters import gamma_correct_inputs
from repro.apps.images import natural_scene
from repro.config import field_choices
from repro.core.backend import get_backend, set_backend
from repro.imsc.engine import EngineFactory, InMemorySCEngine
from repro.serve.service import decode_request, serve_stdio


def _image(size=8, seed=3):
    return natural_scene(size, size, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# construction-time validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_defaults_are_the_fast_preset(self):
        cfg = RunConfig()
        assert cfg.cell_model == "column"
        assert cfg.fault_sampling == "sparse"
        assert cfg.fault_domain == "word"
        assert cfg.jobs == 1 and cfg.tile is None and cfg.seed == 0
        assert cfg == RunConfig.fast() == RunConfig.default()

    def test_frozen_and_hashable(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.jobs = 4
        assert {cfg: 1}[RunConfig()] == 1

    @pytest.mark.parametrize("field,value", [
        ("cell_model", "bogus"),
        ("fault_sampling", "bogus"),
        ("fault_domain", "bogus"),
        ("mp_context", "bogus"),
        ("backend", "bogus"),
        ("jobs", 0),
        ("jobs", True),
        ("jobs", 2.0),
        ("tile", 0),
        ("tile", "8"),
        ("seed", None),
        ("seed", 1.5),
    ])
    def test_bad_field_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_sparse_plus_bit_conflict_names_both_keys(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(fault_sampling="sparse", fault_domain="bit")
        assert "fault_sampling" in str(exc.value)
        assert "fault_domain" in str(exc.value)

    def test_explicit_dense_bit_is_fine(self):
        cfg = RunConfig(fault_sampling="dense", fault_domain="bit")
        assert cfg.fault_domain == "bit"


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------
class TestPresets:
    def test_presets_derive_from_the_dataclass_defaults(self):
        assert RunConfig.fast() == RunConfig()
        assert RunConfig.oracle() == RunConfig(cell_model="per-bit",
                                               fault_sampling="dense")

    def test_oracle_pins_paper_faithful_axes(self):
        cfg = RunConfig.oracle()
        assert cfg.cell_model == "per-bit"
        assert cfg.fault_sampling == "dense"
        assert cfg.fault_domain == "word"   # bit-identical to word per seed

    def test_preset_lookup_and_overrides(self):
        assert RunConfig.preset("fast") == RunConfig.fast()
        assert RunConfig.preset("oracle") == RunConfig.oracle()
        cfg = RunConfig.preset("oracle", jobs=4, tile=8)
        assert cfg.jobs == 4 and cfg.tile == 8
        assert cfg.cell_model == "per-bit"
        with pytest.raises(ValueError, match="unknown preset 'slow'"):
            RunConfig.preset("slow")

    def test_preset_overrides_are_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            RunConfig.preset("fast", jobs=0)
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.fast(jbos=2)

    def test_resolve(self):
        assert RunConfig.resolve(None) == RunConfig.default()
        cfg = RunConfig.oracle()
        assert RunConfig.resolve(cfg) is cfg
        with pytest.raises(TypeError, match="RunConfig"):
            RunConfig.resolve({"jobs": 2})


# ----------------------------------------------------------------------
# round-tripping
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig.oracle(),
        RunConfig.fast(backend="packed", jobs=3, tile=8, seed=11,
                       mp_context="spawn"),
    ])
    def test_from_dict_to_dict_identity(self, cfg):
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        # and through an actual JSON wire hop
        wired = json.loads(json.dumps(cfg.to_dict()))
        assert RunConfig.from_dict(wired) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = RunConfig.from_dict({"jobs": 2})
        assert cfg == RunConfig.fast(jobs=2)

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValueError, match="'cellmodel'"):
            RunConfig.from_dict({"cellmodel": "column"})
        with pytest.raises(ValueError, match="'njobs'"):
            RunConfig().replace(njobs=2)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_dict([("jobs", 2)])

    def test_replace_returns_validated_copy(self):
        base = RunConfig()
        out = base.replace(jobs=2)
        assert out.jobs == 2 and base.jobs == 1
        with pytest.raises(ValueError, match="fault_sampling"):
            base.replace(fault_domain="bit", fault_sampling="sparse")


# ----------------------------------------------------------------------
# engine-kwarg resolution
# ----------------------------------------------------------------------
class TestEngineKwargResolution:
    def test_engine_kwargs_pins_three_axes(self):
        assert RunConfig.oracle().engine_kwargs() == {
            "cell_model": "per-bit", "fault_sampling": "dense",
            "fault_domain": "word"}

    def test_explicit_overrides_beat_config(self):
        merged = RunConfig.fast().merged_engine_kwargs(
            {"cell_model": "per-bit"})
        assert merged["cell_model"] == "per-bit"
        assert merged["fault_sampling"] == "sparse"

    def test_bit_domain_coerces_config_sparse_to_dense(self):
        merged = RunConfig.fast().merged_engine_kwargs(
            {"fault_domain": "bit"})
        assert merged == {"cell_model": "column", "fault_domain": "bit",
                          "fault_sampling": "dense"}
        # ...but an *explicit* sparse request is never silently rewritten
        explicit = RunConfig.fast().merged_engine_kwargs(
            {"fault_domain": "bit", "fault_sampling": "sparse"})
        assert explicit["fault_sampling"] == "sparse"

    def test_validate_for_returns_worker_kwargs(self):
        merged = RunConfig.fast().validate_for(
            "gamma_correct", ["image"], kernel_kwargs={"gamma": 0.5})
        assert merged == RunConfig.fast().engine_kwargs()

    def test_validate_for_rejects_bad_keys_by_name(self):
        cfg = RunConfig.fast()
        with pytest.raises(ValueError, match="'rng'"):
            cfg.validate_for("gamma_correct", ["image"],
                             engine_kwargs={"rng": 0})
        with pytest.raises(ValueError, match="'config'"):
            cfg.validate_for("gamma_correct", ["image"],
                             engine_kwargs={"config": cfg})
        with pytest.raises(ValueError, match="unknown engine kwarg"):
            cfg.validate_for("gamma_correct", ["image"],
                             engine_kwargs={"bogus": 1})
        with pytest.raises(ValueError, match="unknown tile kernel"):
            cfg.validate_for("not_a_kernel", ["image"])


# ----------------------------------------------------------------------
# the config reaches the engine
# ----------------------------------------------------------------------
class TestEngineThreading:
    """``merged_engine_kwargs`` is the one resolver; the engine only takes
    resolved kwargs, with the oracle values as its defaults."""

    def test_bare_engine_keeps_oracle_defaults(self):
        # Direct engine construction stays paper-faithful: the pinned
        # per-bit/dense goldens in test_backend_equivalence depend on it.
        eng = InMemorySCEngine(rng=0)
        assert eng.cell_model == "per-bit"
        assert eng.fault_sampling == "dense"
        assert eng.fault_domain == "word"

    def test_config_sets_engine_axes(self):
        eng = InMemorySCEngine(rng=0,
                               **RunConfig.fast().merged_engine_kwargs())
        assert eng.cell_model == "column"
        assert eng.fault_sampling == "sparse"

    def test_explicit_kwarg_beats_config(self):
        eng = InMemorySCEngine(rng=0, **RunConfig.fast().merged_engine_kwargs(
            {"cell_model": "per-bit"}))
        assert eng.cell_model == "per-bit"
        assert eng.fault_sampling == "sparse"   # still the config's

    def test_bit_domain_with_config_coerces_dense(self):
        eng = InMemorySCEngine(rng=0, **RunConfig.fast().merged_engine_kwargs(
            {"fault_domain": "bit"}))
        assert eng.fault_domain == "bit"
        assert eng.fault_sampling == "dense"

    def test_engine_factory_forwards_config(self):
        factory = EngineFactory(**RunConfig.fast().merged_engine_kwargs())
        eng = factory(np.random.SeedSequence(0))
        assert eng.cell_model == "column"
        assert eng.fault_sampling == "sparse"

    def test_engine_factory_validates_eagerly(self):
        with pytest.raises(ValueError, match="cell_model"):
            EngineFactory(**RunConfig.fast().merged_engine_kwargs(
                {"cell_model": "bogus"}))

    def test_engine_and_factory_take_no_config(self):
        with pytest.raises(TypeError, match="config"):
            InMemorySCEngine(config=RunConfig.fast())
        with pytest.raises(TypeError, match="config"):
            EngineFactory(config=RunConfig.fast())


# ----------------------------------------------------------------------
# the config reaches run_app / run_tiled
# ----------------------------------------------------------------------
class TestAppThreading:
    def test_bare_run_app_is_the_fast_preset(self):
        bare = run_app("compositing", "sc", length=16, size=8, seed=5)
        fast = run_app("compositing", "sc", length=16, size=8, seed=5,
                       config=RunConfig.fast())
        np.testing.assert_array_equal(bare.output, fast.output)
        assert bare.ssim_pct == fast.ssim_pct

    def test_oracle_config_changes_the_model(self):
        fast = run_app("compositing", "sc", length=16, size=8, seed=5)
        oracle = run_app("compositing", "sc", length=16, size=8, seed=5,
                         config=RunConfig.oracle())
        explicit = run_app("compositing", "sc", length=16, size=8, seed=5,
                           cell_model="per-bit", fault_sampling="dense")
        np.testing.assert_array_equal(oracle.output, explicit.output)
        # per-bit noise draws differ from the column model's
        assert not np.array_equal(oracle.output, fast.output)

    def test_run_tiled_takes_tile_and_seed_from_config(self):
        inputs = gamma_correct_inputs(_image())
        cfg = RunConfig.fast(tile=4, seed=9)
        by_cfg, _ = run_tiled("gamma_correct", inputs, 16, config=cfg,
                              kernel_kwargs={"gamma": 0.5})
        by_kw, _ = run_tiled("gamma_correct", inputs, 16, tile=4, seed=9,
                             kernel_kwargs={"gamma": 0.5})
        np.testing.assert_array_equal(by_cfg, by_kw)

    def test_run_tiled_without_any_tile_names_the_fix(self):
        with pytest.raises(ValueError, match="tile"):
            run_tiled("gamma_correct", gamma_correct_inputs(_image()), 16,
                      kernel_kwargs={"gamma": 0.5})


# ----------------------------------------------------------------------
# the CLI flags derive from the fields
# ----------------------------------------------------------------------
@pytest.fixture
def served_config(monkeypatch):
    """Run ``python -m repro serve <flags>`` and return the config it
    would serve with (``serve_stdio`` is stubbed; the active backend
    that ``--backend`` sets is restored afterwards)."""
    seen = {}

    def fake_serve_stdio(**kwargs):
        seen.update(kwargs)
        return 0

    monkeypatch.setattr("repro.serve.serve_stdio", fake_serve_stdio)
    previous = get_backend().name

    def run(*flags):
        assert cli.main(["serve", *flags]) == 0
        return seen["config"]

    yield run
    set_backend(previous)


def _cli_value(field, base):
    """A value for ``field`` that differs from ``base``'s."""
    choices = field_choices(field)
    if choices is not None:
        return next(c for c in choices if c != getattr(base, field.name))
    return (getattr(base, field.name) or 0) + 3


@dataclasses.dataclass(frozen=True)
class _ExtendedConfig(RunConfig):
    retries: int = dataclasses.field(
        default=0, metadata={"help": "retry budget", "minimum": 0})


class TestCliFlags:
    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig),
                             ids=lambda field: field.name)
    def test_every_field_has_a_flag_that_sets_it(self, field,
                                                 served_config):
        base = RunConfig.oracle()
        value = _cli_value(field, base)
        flag = "--" + field.name.replace("_", "-")
        cfg = served_config("--preset", "oracle", flag, str(value))
        assert cfg == base.replace(**{field.name: value})

    def test_bad_flag_values_are_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["serve", "--jobs", "0"])
        assert "jobs must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["serve", "--fault-domain", "bit"])   # fast is sparse
        assert "conflicting keys" in capsys.readouterr().err

    def test_subclass_field_gets_a_flag_and_preset_value(self, monkeypatch,
                                                         served_config):
        monkeypatch.setattr(cli, "RunConfig", _ExtendedConfig)
        cfg = served_config("--preset", "oracle", "--retries", "2")
        assert cfg == _ExtendedConfig.oracle(retries=2)
        assert cfg.cell_model == "per-bit"
        assert _ExtendedConfig.oracle().retries == 0
        assert served_config().retries == 0
        with pytest.raises(ValueError, match="retries"):
            _ExtendedConfig(retries=-1)


# ----------------------------------------------------------------------
# the config crosses the JSON wire
# ----------------------------------------------------------------------
class TestServingThreading:
    def test_decode_request_parses_and_validates_config(self):
        raw = {"kernel": "gamma_correct",
               "inputs": {"image": _image().tolist()}, "length": 16,
               "config": RunConfig.fast(tile=4, seed=7).to_dict()}
        req = decode_request(raw)
        assert req["config"] == RunConfig.fast(tile=4, seed=7)
        assert req["tile"] is None   # the config's tile applies downstream
        with pytest.raises(ValueError, match="'cellmodel'"):
            decode_request({**raw, "config": {"cellmodel": "column"}})

    def test_request_without_tile_or_config_tile_rejected(self):
        raw = {"kernel": "gamma_correct",
               "inputs": {"image": _image().tolist()}, "length": 16,
               "config": RunConfig.fast().to_dict()}
        with pytest.raises(ValueError, match="tile"):
            decode_request(raw)

    def test_stdio_config_reaches_the_workers(self):
        # The same request under the oracle and fast configs must match
        # the equivalent explicit-engine-kwargs batch runs bit-exactly —
        # proof the wire config reaches the worker engines.
        img = _image()
        base = {"kernel": "gamma_correct",
                "inputs": {"image": img.tolist()}, "length": 16, "seed": 7,
                "kernel_kwargs": {"gamma": 0.5}}
        requests = [
            {**base, "id": "oracle",
             "config": RunConfig.oracle(tile=4).to_dict()},
            {**base, "id": "fast",
             "config": RunConfig.fast(tile=4).to_dict()},
            {"id": "stats-probe", "type": "stats"},
        ]
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests)
                            + "\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=2) == 0
        got = {r["id"]: r
               for r in map(json.loads, stdout.getvalue().splitlines())}
        inputs = gamma_correct_inputs(img)
        for name, kwargs in (
                ("oracle", {"cell_model": "per-bit",
                            "fault_sampling": "dense"}),
                ("fast", {"cell_model": "column",
                          "fault_sampling": "sparse"})):
            assert got[name]["ok"] is True
            ref, _ = run_tiled("gamma_correct", inputs, 16, tile=4, jobs=1,
                               seed=7, engine_kwargs=kwargs,
                               kernel_kwargs={"gamma": 0.5})
            np.testing.assert_array_equal(np.array(got[name]["output"]),
                                          ref)
        # served under different models, the two outputs must differ
        assert not np.array_equal(np.array(got["oracle"]["output"]),
                                  np.array(got["fast"]["output"]))
        # the stats echo carries the serving default config
        stats = got["stats-probe"]["stats"]
        assert stats["config"] == RunConfig.default().to_dict()

    # "transport" is an old client's key: the field no longer exists
    @pytest.mark.parametrize("key,value", [
        pytest.param("cellmodel", "column", id="cellmodel"),
        pytest.param("transport", "copy", id="transport"),
    ])
    def test_stdio_rejects_unknown_config_key_by_name(self, key, value):
        raw = {"id": "x", "kernel": "gamma_correct",
               "inputs": {"image": _image().tolist()}, "length": 16,
               "tile": 4, "seed": 0, "config": {key: value}}
        stdin = io.StringIO(json.dumps(raw) + "\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=1) == 0
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1
        resp = json.loads(lines[0])
        assert resp["id"] == "x"
        assert resp["ok"] is False and key in resp["error"]
