"""The one picklable description of *how to run*: :class:`RunConfig`.

Every fast path in this stack — the packed word backend, the batched
column S-to-B readout, sparse fault-mask scatter, the tiled process-pool
executor — is selected by one frozen,
validated :class:`RunConfig` that crosses process and wire boundaries
intact: it is picklable (workers), JSON round-trippable
(``to_dict``/``from_dict``, with the same unknown-key strictness as the
serving front-end), and hashable (caches).

One home per run axis
---------------------
Each field is declared once, with its default, its checks (choices, or
an integer minimum) and its help text in ``dataclasses.field`` metadata.
Everything else is derived from ``dataclasses.fields(RunConfig)``: the
``__post_init__`` validation, the CLI's ``--<field>`` flags
(:mod:`repro.cli`), the JSON round-trip and both presets.  A new field
therefore needs no edit anywhere else.

Presets
-------
* :meth:`RunConfig.fast` — the **package default**: the dataclass
  defaults (packed words, column S-to-B, sparse fault sampling).
  ``RunConfig.default()`` is an alias.
* :meth:`RunConfig.oracle` — the paper-faithful slow reference: the
  defaults plus per-bit S-to-B cell sampling and dense Bernoulli fault
  masks.  For a given seed it reproduces the pre-release pinned golden
  values bit-exactly (``tests/test_backend_equivalence.py`` holds it to
  that).

The two presets differ only in *statistically conformant* axes: the
conformance suites (``tests/test_imsc.py``, ``tests/test_fault_sampling
.py``) bridge them, and every bit-exact axis (backend, fault domain,
jobs/tile sharding) is identical across presets by
construction.

Resolution contract
-------------------
Entry points take ``config=None`` plus their historical per-field kwargs.
``None`` fields mean "take the config's value"; an explicitly passed
field *overrides* the config (the CLI's ``--cell-model`` etc. build on
this).  :meth:`RunConfig.merged_engine_kwargs` is the one resolver of
the engine axes; a bare :class:`~repro.imsc.engine.InMemorySCEngine`
takes the oracle values as its signature defaults.  One deliberate
coercion: a caller explicitly selecting the per-bit fault **domain**
oracle without naming a sampling mode gets ``'dense'`` (the per-bit
oracle is dense by definition), never a ``sparse``/``'bit'`` conflict
error from an implicit default.

This module also owns the cached request-validation introspection the
executor and the serving scheduler share:
:func:`validate_task_kwargs` / :meth:`RunConfig.validate_for`.
"""

from __future__ import annotations

import dataclasses
import inspect
from functools import lru_cache
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from .core.backend import available_backends

__all__ = ["RunConfig", "field_choices", "field_minimum",
           "validate_task_kwargs"]


def _axis(default: Any, help: str, *,
          choices: Union[Sequence[str], Callable[[], Sequence[str]],
                         None] = None,
          minimum: Optional[int] = None) -> Any:
    """A :class:`RunConfig` field: default, checks and help, declared once.

    A field with ``choices`` (a tuple, or a callable for a registry that
    can grow) takes one of those strings; a field without is an integer,
    at least ``minimum`` when given.  A ``None`` default makes ``None``
    a valid value too.
    """
    return dataclasses.field(default=default, metadata={
        "help": help, "choices": choices, "minimum": minimum})


def field_choices(field: dataclasses.Field) -> Optional[List[str]]:
    """The values a string field accepts, or ``None`` for an integer."""
    choices = field.metadata.get("choices")
    if callable(choices):
        choices = choices()
    return None if choices is None else list(choices)


def field_minimum(name: str) -> Optional[int]:
    """The declared lower bound of integer RunConfig field ``name``."""
    return RunConfig.__dataclass_fields__[name].metadata["minimum"]


def _check_field(field: dataclasses.Field, value: Any) -> None:
    if value is None and field.default is None:
        return
    either = " or None" if field.default is None else ""
    choices = field_choices(field)
    if choices is not None:
        if value not in choices:
            raise ValueError(f"{field.name} must be one of "
                             f"{', '.join(map(repr, choices))}{either}, "
                             f"got {value!r}")
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field.name} must be an integer{either}, "
                         f"got {value!r}")
    minimum = field.metadata.get("minimum")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field.name} must be >= {minimum}, "
                         f"got {value!r}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Frozen, validated description of how to execute SC work.

    Each field's meaning is its ``help`` metadata (also the CLI's
    ``--help``); :mod:`repro.config` explains the presets and the
    resolution contract.
    """

    backend: Optional[str] = _axis(
        None, "bit-stream execution backend; unset inherits the "
        "process-active one (the REPRO_BACKEND environment variable, else "
        "packed).  Streams are bit-identical across backends, so this "
        "only changes speed", choices=available_backends)
    cell_model: str = _axis(
        "column", "S-to-B device model for SC application runs: 'per-bit' "
        "samples every cell (the conformance oracle), 'column' is the "
        "batched popcount readout with cached per-column conductance "
        "draws", choices=("per-bit", "column"))
    fault_sampling: str = _axis(
        "sparse", "fault-mask sampling for faulty SC runs: 'dense' is the "
        "bit-exact per-site Bernoulli oracle, 'sparse' draws Binomial flip "
        "counts and scatters the sites into the packed payload "
        "(statistically conformant, much faster at the paper's gate "
        "rates)", choices=("dense", "sparse"))
    fault_domain: str = _axis(
        "word", "fault-application domain for faulty SC runs: 'word' "
        "applies packed masks in the word domain, 'bit' is the per-bit "
        "conformance oracle (bit-identical per seed; requires dense "
        "sampling)", choices=("word", "bit"))
    jobs: int = _axis(
        1, "worker processes: shards the Monte-Carlo chunks of "
        "table1/table2 and the tiled SC application runs (which need a "
        "tile), and sizes the serving pool (never below 2 there); output "
        "is independent of the worker count", minimum=1)
    tile: Optional[int] = _axis(
        None, "tile edge length for sharded SC application runs; unset "
        "runs whole images (serving requires a tile)", minimum=1)
    mp_context: Optional[str] = _axis(
        None, "multiprocessing start method for worker pools; unset pins "
        "the platform default (forkserver for serving).  Results are "
        "start-method-invariant",
        choices=("fork", "forkserver", "spawn"))
    seed: int = _axis(
        0, "root seed of the deterministic per-tile / per-chunk "
        "SeedSequence spawn; must be an integer, because a None/float "
        "seed would make output silently nondeterministic", minimum=0)

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _check_field(field, getattr(self, field.name))
        if self.fault_sampling == "sparse" and self.fault_domain == "bit":
            raise ValueError(
                "conflicting keys: fault_sampling='sparse' requires "
                "fault_domain='word' (the per-bit oracle is dense by "
                "definition)")

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    PRESETS = ("fast", "oracle")

    @classmethod
    def fast(cls, **overrides: Any) -> "RunConfig":
        """The fast-path preset: the dataclass defaults."""
        return cls().replace(**overrides)

    @classmethod
    def oracle(cls, **overrides: Any) -> "RunConfig":
        """The paper-faithful reference: per-bit S-to-B, dense masks.

        Reproduces the pre-release pinned golden quality values
        bit-exactly for a given seed.
        """
        return cls().replace(**{"cell_model": "per-bit",
                                "fault_sampling": "dense", **overrides})

    @classmethod
    def default(cls) -> "RunConfig":
        """The package default — :meth:`fast`."""
        return cls.fast()

    @classmethod
    def preset(cls, name: str, **overrides: Any) -> "RunConfig":
        """Look up a preset by name (``'fast'`` / ``'oracle'``)."""
        if name not in cls.PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of: "
                             f"{', '.join(cls.PRESETS)}")
        return getattr(cls, name)(**overrides)

    @classmethod
    def resolve(cls, config: Optional["RunConfig"]) -> "RunConfig":
        """``config`` itself, or :meth:`default` when ``None``."""
        if config is None:
            return cls.default()
        if not isinstance(config, cls):
            raise TypeError(f"config must be a RunConfig or None, "
                            f"got {type(config).__name__}")
        return config

    # ------------------------------------------------------------------
    # round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON field dict; ``from_dict(to_dict())`` is identity."""
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        """Build a validated config from a plain dict.

        Strictness matches the JSON front-end: unknown keys are rejected
        *by name* (a silently dropped key means a client believes it
        configured something it didn't), and every field value is
        validated before the config is returned.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object of RunConfig "
                             f"fields, got {type(data).__name__}")
        return cls().replace(**data)

    def replace(self, **overrides: Any) -> "RunConfig":
        """A copy with fields replaced; unknown names rejected by name."""
        unknown = sorted(set(overrides) - set(self.field_names()))
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(self.field_names())}")
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # engine-kwarg resolution
    # ------------------------------------------------------------------
    def engine_kwargs(self) -> Dict[str, Any]:
        """The engine-constructor kwargs this config pins."""
        return {"cell_model": self.cell_model,
                "fault_sampling": self.fault_sampling,
                "fault_domain": self.fault_domain}

    def merged_engine_kwargs(self, extra: Optional[Dict[str, Any]] = None
                             ) -> Dict[str, Any]:
        """Config-pinned engine kwargs with explicit ``extra`` overrides.

        Explicit keys win over the config.  One coercion keeps the
        override surface ergonomic: selecting ``fault_domain='bit'`` (the
        per-bit oracle) without naming a sampling mode falls back to
        ``'dense'`` instead of inheriting a conflicting config-level
        ``'sparse'`` — the oracle is dense by definition, and an error
        from an *implicit* default would be unactionable.
        """
        merged = self.engine_kwargs()
        extra = dict(extra or {})
        merged.update(extra)
        if (merged.get("fault_domain") == "bit"
                and "fault_sampling" not in extra
                and merged.get("fault_sampling") == "sparse"):
            merged["fault_sampling"] = "dense"
        return merged

    def validate_for(self, kernel: Union[str, Callable],
                     input_names: Sequence[str] = (),
                     kernel_kwargs: Optional[Dict[str, Any]] = None,
                     engine_kwargs: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """Validate this config (plus overrides) against one tile kernel.

        Returns the merged engine kwargs the workers would see.  Raises
        :class:`ValueError` naming the offending key on an unknown engine
        kwarg, an invalid engine value, an unknown kernel kwarg, an
        input/kwarg collision, or a missing required input — all in the
        caller's process, before anything is pickled to a worker.
        """
        merged = self.merged_engine_kwargs(engine_kwargs)
        validate_task_kwargs(kernel, input_names, merged,
                             dict(kernel_kwargs or {}))
        return merged


# ---------------------------------------------------------------------------
# Cached task-kwarg validation (the single copy)
# ---------------------------------------------------------------------------
@lru_cache(maxsize=1)
def _engine_param_names() -> frozenset:
    """Constructor kwargs of ``InMemorySCEngine``, introspected once."""
    from .imsc.engine import InMemorySCEngine
    return frozenset(
        inspect.signature(InMemorySCEngine.__init__).parameters) - {"self"}


@lru_cache(maxsize=256)
def _kernel_sig_info(fn: Callable) -> Tuple[bool, frozenset, frozenset]:
    """``(has_var_keyword, param_names, required_names)`` for one kernel.

    Keyed on the function object (not the registry name) so re-binding a
    name in ``KERNELS`` — the test suite does — can never serve a stale
    signature.
    """
    sig = inspect.signature(fn)
    has_var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD
                     for p in sig.parameters.values())
    params = frozenset(sig.parameters) - {"engine", "length"}
    required = frozenset(
        name for name, p in sig.parameters.items()
        if name not in ("engine", "length")
        and p.default is inspect.Parameter.empty
        and p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                       inspect.Parameter.KEYWORD_ONLY))
    return has_var_kw, params, required


#: Engine-kwarg combinations already probed OK (a throwaway engine was
#: constructed without raising).  Serving hot path: re-probing the same
#: frozen kwargs on every request would rebuild an engine per request.
_ENGINE_PROBE_CACHE: set = set()
_ENGINE_PROBE_CACHE_MAX = 1024


def _probe_engine_kwargs(engine_kwargs: Dict[str, Any]) -> None:
    """Reject bad engine kwarg *values* with the engine's own message.

    Constructing a throwaway engine (no stream state) validates values
    like ``fault_sampling``; combinations that pass are remembered (keyed
    on the frozen kwargs) so repeated requests skip the probe.  Failures
    are never cached, and unhashable values fall back to probing every
    time.
    """
    try:
        key = tuple(sorted(engine_kwargs.items()))
        hash(key)
    except TypeError:
        key = None
    if key is not None and key in _ENGINE_PROBE_CACHE:
        return
    from .imsc.engine import InMemorySCEngine
    InMemorySCEngine(**engine_kwargs)
    if key is not None:
        if len(_ENGINE_PROBE_CACHE) >= _ENGINE_PROBE_CACHE_MAX:
            _ENGINE_PROBE_CACHE.clear()
        _ENGINE_PROBE_CACHE.add(key)


def _kernel_fn(kernel: Union[str, Callable]) -> Callable:
    if callable(kernel):
        return kernel
    from .apps.executor import KERNELS   # deferred: apps sits above config
    if kernel not in KERNELS:
        raise ValueError(f"unknown tile kernel {kernel!r}")
    return KERNELS[kernel]


def validate_task_kwargs(kernel: Union[str, Callable],
                         input_names: Sequence[str],
                         engine_kwargs: Dict[str, Any],
                         kernel_kwargs: Dict[str, Any]) -> None:
    """Fail fast, in the parent, on kwargs the workers would choke on.

    A bad key would otherwise surface only inside a worker process as an
    opaque pickled ``TypeError``; checking against the engine constructor
    and the kernel signature here names the offending key directly.
    Engine kwarg *values* are probed too (:func:`_probe_engine_kwargs`).
    All introspection is cached — this runs once per served request, and
    re-running ``inspect.signature`` plus an engine construction per
    request was measurable in the serving hot path.

    ``kernel`` may be a registry name or the kernel function itself.
    This is the single copy of the acceptable-key derivation;
    ``apps/executor.py`` and the serving path both route through it.
    """
    engine_params = _engine_param_names()
    for key in engine_kwargs:
        if key == "rng":
            raise ValueError("engine_kwargs must not contain 'rng': each "
                             "tile engine derives its generator from the "
                             "per-tile SeedSequence child")
        if key not in engine_params:
            raise ValueError(
                f"unknown engine kwarg {key!r}; valid keys: "
                f"{', '.join(sorted(engine_params - {'rng'}))}")
    _probe_engine_kwargs(engine_kwargs)
    reserved = set(input_names)
    for key in kernel_kwargs:
        if key in reserved:
            raise ValueError(f"kernel kwarg {key!r} collides with a tiled "
                             f"input array of the same name")
    kernel_name = kernel if isinstance(kernel, str) else getattr(
        kernel, "__name__", repr(kernel))
    has_var_kw, kernel_params, required = _kernel_sig_info(
        _kernel_fn(kernel))
    if has_var_kw:
        return
    for key in input_names:
        if key not in kernel_params:
            raise ValueError(
                f"unknown input {key!r} for kernel {kernel_name!r}; "
                f"expected arrays named from: "
                f"{', '.join(sorted(kernel_params))}")
    for key in kernel_kwargs:
        if key not in kernel_params:
            raise ValueError(
                f"unknown kwarg {key!r} for kernel {kernel_name!r}; valid "
                f"keys: {', '.join(sorted(kernel_params - reserved)) or '(none)'}")
    missing = required - reserved - set(kernel_kwargs)
    if missing:
        raise ValueError(
            f"kernel {kernel_name!r} is missing required input array(s): "
            f"{', '.join(sorted(missing))}")
