"""FUSE batch routing and the tightened step loop are bit-identical.

The oracle is the pre-batching ``FuseModel.run``, ``gamma_route`` and
``fuse_ensemble``, kept verbatim in :mod:`tests.fuse_seed`.  The batched
ensemble (one shared kernel, all members routed together) must equal it
exactly -- compared with ``==`` plus signed zeros and NaN positions --
on the NumPy batch path and on the pure-Python fallback.
"""

import math
from contextlib import contextmanager
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydrology import fuse
from repro.hydrology.fuse import (
    FuseDecisions,
    FuseModel,
    FuseParameters,
    FuseResult,
    fuse_ensemble,
    gamma_route,
    route_batch,
)
from repro.hydrology.timeseries import TimeSeries
from tests.fuse_seed import (
    seed_convolve,
    seed_fuse_ensemble,
    seed_gamma_route,
)


# -- comparison helpers -------------------------------------------------------------


def identical(a: Sequence[float], b: Sequence[float]) -> bool:
    """``==`` elementwise, but NaN matches NaN and -0.0 differs from 0.0."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x != x or y != y:
            if not (x != x and y != y):
                return False
        elif x != y or math.copysign(1.0, x) != math.copysign(1.0, y):
            return False
    return True


@contextmanager
def routing(backend: str):
    """Route through the NumPy batch path or the pure-Python fallback."""
    saved = fuse._np
    if backend == "numpy" and saved is None:
        pytest.skip("NumPy absent")
    fuse._np = saved if backend == "numpy" else None
    try:
        yield
    finally:
        fuse._np = saved


BACKENDS = ("numpy", "scalar")
ALL_COMBOS = FuseDecisions.all_combinations()

#: Rainfall with long dry spells, so zero flow is common once routed,
#: plus the gaps (NaN), negative and infinite readings the model clamps.
zero_heavy = st.lists(
    st.one_of(st.just(0.0), st.just(0.0), st.just(float("nan")),
              st.floats(min_value=0.0, max_value=40.0),
              st.floats(min_value=-5.0, max_value=0.0),
              st.just(float("inf"))),
    min_size=1, max_size=90)
pet_values = st.one_of(st.floats(min_value=-1.0, max_value=2.0),
                       st.just(float("nan")))


def assert_members_equal(new: FuseResult, old: FuseResult) -> None:
    assert new.decisions == old.decisions
    assert identical(new.flow.values, old.flow.values)
    assert identical(new.surface_runoff.values, old.surface_runoff.values)
    assert identical(new.baseflow.values, old.baseflow.values)
    assert (new.flow.start, new.flow.dt, new.flow.name) == \
        (old.flow.start, old.flow.dt, old.flow.name)


# -- the properties -----------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       rain=zero_heavy,
       with_pet=st.booleans(),
       dt_hours=st.sampled_from([0.25, 1.0, 3.0, 6.0]),
       subset=st.lists(st.sampled_from(ALL_COMBOS), min_size=1,
                       max_size=16, unique=True),
       smax_upper=st.floats(min_value=10.0, max_value=150.0),
       k_base=st.floats(min_value=0.001, max_value=0.25),
       shape=st.floats(min_value=0.2, max_value=8.0),
       scale_h=st.floats(min_value=0.1, max_value=30.0))
def test_ensemble_bit_identical_to_seed(backend, data, rain, with_pet,
                                        dt_hours, subset, smax_upper, k_base,
                                        shape, scale_h):
    rainfall = TimeSeries(0, 3600 * dt_hours, rain)
    pet = None
    if with_pet:
        pet = TimeSeries(0, 3600 * dt_hours, data.draw(st.lists(
            pet_values, min_size=len(rain), max_size=len(rain))))
    params = FuseParameters(smax_upper=smax_upper, k_base=k_base,
                            routing_shape=shape, routing_scale_h=scale_h)
    with routing(backend):
        new = fuse_ensemble(rainfall, pet, params, subset, dt_hours)
        single = FuseModel(subset[0], dt_hours).run(rainfall, pet, params)
    old = seed_fuse_ensemble(rainfall, pet, params, subset, dt_hours)
    assert len(new.members) == len(old.members)
    for new_member, old_member in zip(new.members, old.members):
        assert_members_equal(new_member, old_member)
    assert_members_equal(single, old.members[0])
    assert identical(new.mean.values, old.mean.values)
    assert identical(new.lower.values, old.lower.values)
    assert identical(new.upper.values, old.upper.values)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(flow=st.lists(st.one_of(st.just(0.0), st.just(-0.0),
                               st.floats(min_value=0.0, max_value=1e6)),
                     max_size=80),
       shape=st.one_of(st.floats(min_value=1e-3, max_value=400.0),
                       st.floats(min_value=1.0, max_value=2.0)),
       scale=st.one_of(st.floats(min_value=1e-4, max_value=1e7),
                       st.floats(min_value=0.5, max_value=5.0)))
def test_gamma_route_matches_seed_at_extreme_kernels(backend, flow, shape,
                                                     scale):
    """Overflowing, underflowing and all-zero kernels behave as before:
    the same output, or the same exception type."""
    try:
        want = seed_gamma_route(flow, shape, scale)
    except ArithmeticError as err:
        with routing(backend), pytest.raises(type(err)):
            gamma_route(flow, shape, scale)
        return
    with routing(backend):
        got = gamma_route(flow, shape, scale)
    assert identical(got, want)


taps = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                 st.just(float("inf")), st.just(float("-inf")),
                 st.just(float("nan")), st.just(0.0))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       length=st.integers(min_value=0, max_value=40),
       members=st.integers(min_value=1, max_value=5),
       kernel=st.lists(taps, min_size=1, max_size=20))
def test_batch_skips_zero_flow_on_non_finite_taps(backend, data, length,
                                                  members, kernel):
    """A zero flow never multiplies an inf/NaN tap: the batch keeps the
    scalar loop's ``q == 0.0`` skip."""
    value = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(min_value=-50.0, max_value=50.0))
    flows = [data.draw(st.lists(value, min_size=length, max_size=length))
             for _ in range(members)]
    with routing(backend):
        routed = route_batch(flows, kernel)
    assert len(routed) == members
    for flow, got in zip(flows, routed):
        assert identical(got, seed_convolve(flow, kernel))
