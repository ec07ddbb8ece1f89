"""The twin contract: a reference twin overrides only what the product has.

A twin (``tests/twins/``) is installed by subclassing the product class
and overriding its kernel methods. An override whose name the product no
longer has — a kernel renamed or misspelled — is never called: the twin
then runs the product's kernel, and every differential against it
passes without checking anything. So every method a twin defines must
exist on the product class it subclasses, and the two stand-in planes
of :class:`~twins.ScalarProbeView` must answer every public name of the
kernel classes they replace. The product classes choose no path themselves: no
constructor takes a ``vectorized`` or ``backend`` switch.
"""

from __future__ import annotations

import inspect

import pytest

import twins
from repro.engine import BatchQueryEngine, SteadyStateChurnEngine
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, GossipMembership, ProbeView, VectorizedDetectorBank
from repro.ring import Ring

SUBCLASSES = {
    twins.ScalarProbeView: ProbeView,
    twins.ReferenceStore: ReplicatedStore,
    twins.ReferenceQueryEngine: BatchQueryEngine,
    twins.ReferenceChurnEngine: SteadyStateChurnEngine,
}


def test_every_twin_class_is_covered():
    exported = {getattr(twins, name) for name in twins.__all__}
    stand_ins = {twins.ScalarDetectorBank, twins.ScalarGossipMembership}
    assert exported == set(SUBCLASSES) | stand_ins


@pytest.mark.parametrize("twin", list(SUBCLASSES), ids=lambda cls: cls.__name__)
def test_every_override_names_a_product_method(twin):
    product = SUBCLASSES[twin]
    assert twin.__bases__ == (product,)
    defined = [name for name, value in vars(twin).items() if inspect.isfunction(value)]
    assert defined, f"{twin.__name__} overrides nothing"
    missing = [name for name in defined if not inspect.isfunction(getattr(product, name, None))]
    assert not missing, f"{twin.__name__} overrides what {product.__name__} lacks: {missing}"


def test_the_probe_view_twin_installs_both_stand_ins():
    ring = Ring()
    ring.insert_many((i, i / 8) for i in range(8))
    config = DetectorConfig()
    view = twins.ScalarProbeView(ring, config)
    assert type(view._bank) is twins.ScalarDetectorBank
    assert type(view._gossip) is twins.ScalarGossipMembership
    for stand_in, kernel in (
        (view._bank, VectorizedDetectorBank(config, ring.state)),
        (view._gossip, GossipMembership(config)),
    ):
        public = {name for name in dir(type(kernel)) if not name.startswith("_")}
        assert public <= set(dir(stand_in)), sorted(public - set(dir(stand_in)))


@pytest.mark.parametrize("product", list(SUBCLASSES.values()), ids=lambda cls: cls.__name__)
def test_no_constructor_takes_a_path_switch(product):
    parameters = inspect.signature(product.__init__).parameters
    assert not {"vectorized", "backend"} & set(parameters)
