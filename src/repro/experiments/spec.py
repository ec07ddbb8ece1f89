"""Declarative experiment specs: the registry behind ``repro list``.

An :class:`ExperimentSpec` describes one runnable experiment — id, human
title, tags (``figure`` / ``ablation`` / ``extension`` / ``scenario``)
and a parameter schema derived from the run function's signature — and
is registered with the :func:`experiment` decorator::

    @experiment(
        "fig1c",
        title="Search cost vs network size",
        tags=("figure",),
        help={"n_queries": "queries per measurement (0 = one per peer)"},
    )
    def run(scale=1.0, seed=42, n_queries=0): ...

Specs are pure descriptions: execution, parallel fan-out and artifact
caching live in :mod:`repro.experiments.runner` and
:mod:`repro.experiments.store`. A :class:`SweepSpec` is the cross-product
counterpart — named axes over any spec parameter, expanded into one
resolved parameter dict per grid point.

``repro list`` renders this registry; it is the single source of truth
for what exists (no hand-maintained tables anywhere else).
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..errors import ConfigError
from ..rng import stable_label_hash
from .base import ExperimentResult

__all__ = [
    "Param",
    "ExperimentSpec",
    "SweepSpec",
    "experiment",
    "register",
    "register_sweep",
    "get_spec",
    "get_sweep",
    "all_specs",
    "all_sweeps",
    "derive_seed",
]

#: Tags with registry-wide meaning. ``figure`` = a paper artifact,
#: ``ablation`` = a design-knob study, ``extension`` = a claim quoted in
#: the paper's text without a figure, ``scenario`` = a generic
#: parameterized scenario meant for sweeps (excluded from ``repro all``).
KNOWN_TAGS = frozenset({"figure", "ablation", "extension", "scenario"})

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def derive_seed(root: int, *labels: str | int) -> int:
    """Derive a deterministic child seed from a root seed and labels.

    The experiment-layer counterpart of :func:`repro.rng.split`: where
    ``split`` yields a generator, this yields a plain ``int`` suitable as
    a spec's ``seed`` parameter (e.g. one independent seed per sweep
    repetition). Stable across processes and platforms.
    """
    acc = root & 0xFFFFFFFFFFFFFFFF
    for label in labels:
        word = label & 0xFFFFFFFFFFFFFFFF if isinstance(label, int) else stable_label_hash(str(label))
        acc = stable_label_hash(f"{acc}:{word}")
    return acc


@dataclass(frozen=True)
class Param:
    """One parameter of an experiment: name, default and help text."""

    name: str
    default: object
    help: str = ""

    @property
    def kind(self) -> str:
        """Human-readable type name of the default (``any`` for None)."""
        return "any" if self.default is None else type(self.default).__name__

    def coerce(self, text: str) -> object:
        """Parse a CLI string into this parameter's type.

        The default value's type decides the parse: bool accepts
        true/false spellings, tuples split on commas (element type taken
        from the existing elements), ``None`` defaults guess
        int → float → string.
        """
        if isinstance(self.default, bool):
            lowered = text.strip().lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ConfigError(f"{self.name}: expected a boolean, got {text!r}")
        if isinstance(self.default, (int, float)):
            parse = type(self.default)
            try:
                return parse(text)
            except ValueError:
                raise ConfigError(
                    f"{self.name}: expected {parse.__name__}, got {text!r}"
                ) from None
        if isinstance(self.default, tuple):
            element = float if any(isinstance(v, float) for v in self.default) else int
            try:
                return tuple(element(part) for part in text.split(",") if part != "")
            except ValueError as error:
                raise ConfigError(f"{self.name}: {error}") from None
        if isinstance(self.default, str):
            return text
        # Untyped default (None): accept numbers, refuse anything else —
        # object-valued parameters (config dataclasses) cannot be built
        # from a command-line string and must be set programmatically.
        for parser in (int, float):
            try:
                return parser(text)
            except ValueError:
                continue
        raise ConfigError(
            f"{self.name}: cannot parse {text!r} for a parameter without a "
            "typed default; set it programmatically instead"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: identity, schema and the run function.

    Attributes:
        id: Registry key (``fig1a`` .. ``abl-partitions``, ``scenario``).
        title: Human title matching the paper artifact.
        fn: The run function; called with the resolved parameters, must
            return an :class:`~repro.experiments.base.ExperimentResult`
            (:meth:`run` fills in its id, title and parameters).
        params: Parameter schema (names, defaults, help), derived from
            ``fn``'s signature.
        tags: Classification tags (see :data:`KNOWN_TAGS`).
        description: One-line summary (first docstring line by default).
    """

    id: str
    title: str
    fn: Callable[..., object]
    params: tuple[Param, ...]
    tags: frozenset[str] = frozenset()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigError("spec id must be non-empty")
        unknown = self.tags - KNOWN_TAGS
        if unknown:
            raise ConfigError(f"spec {self.id!r}: unknown tags {sorted(unknown)}")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def standalone(self) -> bool:
        """Whether this spec is a canonical record on its own.

        Scenario-tagged specs are sweep building blocks: one grid point
        is not a paper artifact, so ``repro all`` and ``repro report``
        both exclude them through this one property.
        """
        return "scenario" not in self.tags

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"spec {self.id!r} has no parameter {name!r}; known: {list(self.param_names)}")

    def defaults(self) -> dict[str, object]:
        """The full default parameter dict."""
        return {p.name: p.default for p in self.params}

    def resolve(self, overrides: Mapping[str, object] | None = None) -> dict[str, object]:
        """Validate overrides against the schema and fill in defaults.

        Unknown parameter names raise :class:`ConfigError`. The returned
        dict always contains every parameter, in schema order — the
        canonical form hashed into artifact keys.
        """
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.param_names)
        if unknown:
            raise ConfigError(
                f"spec {self.id!r}: unknown parameters {sorted(unknown)}; "
                f"known: {list(self.param_names)}"
            )
        resolved = self.defaults()
        resolved.update(overrides)
        return resolved

    def run(self, **overrides: object) -> ExperimentResult:
        """Resolve parameters, execute the run function in-process and
        stamp the spec's id and title and the parameters on its result
        (the result's own metadata wins over a parameter of its name)."""
        params = self.resolve(overrides)
        result = self.fn(**params)
        if not isinstance(result, ExperimentResult):
            kind = type(result).__name__
            raise TypeError(f"spec {self.id!r} returned {kind}, not ExperimentResult")
        result.experiment_id, result.title = self.id, self.title
        result.metadata = {**params, **result.metadata}
        return result


_REGISTRY: dict[str, ExperimentSpec] = {}
_SWEEPS: dict[str, "SweepSpec"] = {}


def _params_from_signature(fn: Callable[..., object], help: Mapping[str, str]) -> tuple[Param, ...]:
    params: list[Param] = []
    for name, parameter in inspect.signature(fn).parameters.items():
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        if parameter.default is parameter.empty:
            raise ConfigError(
                f"experiment function {fn.__qualname__}: parameter {name!r} needs a "
                "default (specs are fully declarative)"
            )
        params.append(Param(name=name, default=parameter.default, help=help.get(name, "")))
    stray = set(help) - {p.name for p in params}
    if stray:
        raise ConfigError(f"{fn.__qualname__}: help for unknown parameters {sorted(stray)}")
    return tuple(params)


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (duplicate ids are an error)."""
    if spec.id in _REGISTRY:
        raise ConfigError(f"duplicate experiment id {spec.id!r}")
    _REGISTRY[spec.id] = spec
    return spec


def experiment(
    id: str,
    *,
    title: str,
    tags: Iterable[str] = (),
    help: Mapping[str, str] | None = None,
    description: str | None = None,
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Decorator: derive a spec from ``fn``'s signature and register it."""

    def decorate(fn: Callable[..., object]) -> Callable[..., object]:
        doc = (fn.__doc__ or "").strip().splitlines()
        register(
            ExperimentSpec(
                id=id,
                title=title,
                fn=fn,
                params=_params_from_signature(fn, help or {}),
                tags=frozenset(tags),
                description=description if description is not None else (doc[0] if doc else ""),
            )
        )
        return fn

    return decorate


def get_spec(spec_id: str) -> ExperimentSpec:
    """Look up a spec by id; ``KeyError`` lists the known ids."""
    try:
        return _REGISTRY[spec_id]
    except KeyError:
        raise KeyError(f"unknown experiment {spec_id!r}; known: {sorted(_REGISTRY)}") from None


def all_specs(tag: str | None = None) -> list[ExperimentSpec]:
    """All registered specs (optionally filtered by tag), sorted by id."""
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.id)
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


@dataclass(frozen=True)
class SweepSpec:
    """A cross-product over any subset of a spec's parameters.

    ``axes`` maps parameter name -> candidate values; :meth:`points`
    expands the grid in axis order (last axis varies fastest). ``base``
    holds fixed overrides shared by every point. With ``vary_seed`` set,
    every point gets an independent ``seed`` derived from the root seed
    and the point's position (otherwise all points share the root seed,
    which is what comparative sweeps want).

    New scenarios are ~10-line declarations instead of new modules::

        register_sweep(SweepSpec(
            id="substrate-churn",
            spec_id="scenario",
            title="Substrate x churn x key distribution",
            axes=(("substrate", ("oscar", "chord", "mercury")),
                  ("kill_fraction", (0.0, 0.1)),
                  ("keys", ("uniform", "gnutella"))),
        ))
    """

    id: str
    spec_id: str
    axes: tuple[tuple[str, tuple[object, ...]], ...]
    base: tuple[tuple[str, object], ...] = ()
    title: str = ""
    vary_seed: bool = False

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigError(f"sweep {self.id!r}: at least one axis required")
        for name, values in self.axes:
            if not values:
                raise ConfigError(f"sweep {self.id!r}: axis {name!r} has no values")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, __ in self.axes)

    def points(self, spec: ExperimentSpec, overrides: Mapping[str, object] | None = None) -> list[dict[str, object]]:
        """Expand the grid into fully resolved parameter dicts.

        ``overrides`` (e.g. the CLI's ``--scale``/``--seed``) apply to
        every point but never shadow an axis value.
        """
        shared = dict(self.base)
        shared.update(overrides or {})
        shared = {k: v for k, v in shared.items() if k in spec.param_names}
        expanded: list[dict[str, object]] = []
        names = self.axis_names
        for index, values in enumerate(itertools.product(*(vals for __, vals in self.axes))):
            point = dict(shared)
            point.update(dict(zip(names, values)))
            if self.vary_seed and "seed" in spec.param_names and "seed" not in names:
                root = point.get("seed", spec.param("seed").default)
                point["seed"] = derive_seed(int(root), self.id, index)
            expanded.append(spec.resolve(point))
        return expanded

    def labels(self) -> list[str]:
        """One short ``k=v,k=v`` label per point, aligned with :meth:`points`."""
        names = self.axis_names
        return [
            ",".join(f"{n}={v}" for n, v in zip(names, values))
            for values in itertools.product(*(vals for __, vals in self.axes))
        ]


def register_sweep(sweep: SweepSpec) -> SweepSpec:
    """Add a named sweep to the registry (duplicate ids are an error).

    The target spec and every axis/base name are validated eagerly, so a
    typo'd declaration fails at import time instead of surfacing as a
    traceback when the sweep is eventually run.
    """
    if sweep.id in _SWEEPS:
        raise ConfigError(f"duplicate sweep id {sweep.id!r}")
    spec = get_spec(sweep.spec_id)
    for name in (*sweep.axis_names, *(name for name, __ in sweep.base)):
        try:
            spec.param(name)
        except KeyError as error:
            raise ConfigError(f"sweep {sweep.id!r}: {error.args[0]}") from None
    _SWEEPS[sweep.id] = sweep
    return sweep


def get_sweep(sweep_id: str) -> SweepSpec:
    """Look up a named sweep; ``KeyError`` lists the known ids."""
    try:
        return _SWEEPS[sweep_id]
    except KeyError:
        raise KeyError(f"unknown sweep {sweep_id!r}; known: {sorted(_SWEEPS)}") from None


def all_sweeps() -> list[SweepSpec]:
    """All registered sweeps, sorted by id."""
    return sorted(_SWEEPS.values(), key=lambda sweep: sweep.id)
