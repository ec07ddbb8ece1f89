"""Experiment harness: declarative specs, one Runner, a JSON artifact store.

Every experiment is an :class:`~repro.experiments.spec.ExperimentSpec`
registered with the ``@experiment`` decorator in its module (the
grow-and-measure specs are declarations over one loop in
:mod:`~repro.experiments.grow_measure`); execution (validation,
caching, parallel fan-out) goes through
:class:`~repro.experiments.runner.Runner`. **The registry itself is the
single source of truth** — run ``python -m repro list`` to see every
spec, its tags and its parameter schema. There is deliberately no
hand-maintained table here to drift out of date.

Typical use::

    from repro.experiments import Runner, ArtifactStore

    runner = Runner(store=ArtifactStore("artifacts/"), jobs=4)
    record = runner.run("fig1c", {"scale": 0.05})
    print(record.result.render(), record.cached)
"""

# Importing the experiment modules populates the spec registry.
from . import (  # noqa: F401
    churn,
    ext_latency,
    ext_range,
    fig1a,
    grow_measure,
    net_churn,
    net_smoke,
    scale_build,
)
from .base import ExperimentResult, scaled_sizes
from .growth import SizeMeasurement, grow_and_measure, make_overlay, measure_runs
from .runner import Runner, RunRecord
from .spec import (
    ExperimentSpec,
    Param,
    SweepSpec,
    all_specs,
    all_sweeps,
    derive_seed,
    experiment,
    get_spec,
    get_sweep,
    register_sweep,
)
from .store import ArtifactStore, StoredRun, artifact_key

__all__ = [
    "ArtifactStore",
    "ExperimentResult",
    "ExperimentSpec",
    "Param",
    "RunRecord",
    "Runner",
    "SizeMeasurement",
    "StoredRun",
    "SweepSpec",
    "all_specs",
    "all_sweeps",
    "artifact_key",
    "derive_seed",
    "experiment",
    "get_spec",
    "get_sweep",
    "grow_and_measure",
    "make_overlay",
    "measure_runs",
    "register_sweep",
    "scaled_sizes",
]
