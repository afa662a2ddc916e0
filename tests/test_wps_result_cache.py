"""The WPS Execute result cache: keys, copies, failures and accounting.

Every Execute computes its outputs through ``WpsService.compute``, which
serves a pure process (one built with ``forcing``) from a
content-addressed ``RunCache`` and runs any other process every time.
The cache is host-side only, so a hit must look exactly like a
recompute from the outside: same body, same simulated time and cost,
same lifecycle events.
"""

import math

import pytest

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.data.catchments import STUDY_CATCHMENTS
from repro.data.warehouse import DataWarehouse
from repro.dataplane import DataPlane
from repro.hydrology.timeseries import TimeSeries
from repro.modellib.processes import make_topmodel_process
from repro.perf import RunCache
from repro.services import (
    HttpRequest,
    InputSpec,
    ProcessDescription,
    WpsProcess,
    WpsService,
)
from repro.services.rest import RestServer
from repro.sim import Simulator
from repro.workflow import Workflow, WorkflowEngine, WorkflowNode, \
    compose_wps_process

MORLAND = STUDY_CATCHMENTS["morland"]
#: A short, cheap TOPMODEL run.
SHORT = {"duration_hours": 48, "storm_depth_mm": 70.0}


def no_stored_data(inputs):
    """The forcing of a pure test process that reads no stored data."""
    return ""


@pytest.fixture()
def sim():
    return Simulator()


def make_instance(sim, vcpus=2):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    instance = Instance(sim, "wps-0000", "openstack", image,
                        Flavor("f", vcpus, 2048, 20))
    instance._mark_running()
    return instance


def count_executions(process):
    """Wrap ``process.execute`` so the test sees every recompute."""
    calls = []
    original = process.execute

    def execute(inputs):
        calls.append(dict(inputs))
        return original(inputs)

    process.execute = execute
    return calls


def deploy(sim, *processes, cache=None):
    service = WpsService(sim, "left-morland",
                         BlobStore(sim).create_container("status"),
                         cache=cache)
    for process in processes:
        service.add_process(process)
    instance = make_instance(sim)
    return service, RestServer(sim, service.api, instance), instance


def call(sim, server, request):
    """Drive one request to completion: ``(response, simulated seconds)``."""
    out = []

    def go():
        started = sim.now
        response = yield server.handle(request)
        out.append((response, sim.now - started))

    sim.spawn(go(), name="call")
    sim.run()
    return out[0]


def execute(sim, server, identifier, inputs, mode="sync"):
    return call(sim, server, HttpRequest(
        "POST", f"/v1/wps/processes/{identifier}/execute",
        body={"inputs": inputs, "mode": mode}))


def status_of(sim, server, accepted):
    response, _ = call(sim, server, HttpRequest(
        "GET", accepted.body["statusLocation"]))
    return response.body


# -- validation -------------------------------------------------------------------


@pytest.mark.parametrize("inputs", [
    {"storm_depth_mm": math.nan, "m": math.nan},
    {"storm_depth_mm": math.nan},
    {"q0_mm_h": math.nan},
])
def test_non_finite_inputs_are_a_400_before_any_cache_lookup(sim, inputs):
    process = make_topmodel_process(MORLAND)
    calls = count_executions(process)
    service, server, _ = deploy(sim, process)
    response, _ = execute(sim, server, process.identifier, inputs)
    assert response.status == 400
    body = response.body
    assert body["status"] == 400 and body["retryable"] is False
    assert body["type"].startswith("evop:problem:")
    assert "finite" in body["title"]
    assert calls == []
    assert (service.cache.hits, service.cache.misses) == (0, 0)


def test_validate_rejects_non_finite_numbers():
    """NaN passes both bound checks (every comparison with it is False);
    unchecked, TOPMODEL quietly answers 'no flood' for a NaN storm."""
    from repro.services import HttpError
    topmodel = make_topmodel_process(MORLAND)
    with pytest.raises(HttpError) as caught:
        topmodel.validate({"storm_depth_mm": math.nan, "m": math.nan})
    assert caught.value.status == 400
    description = ProcessDescription(
        identifier="scale", title="Scale",
        inputs=[InputSpec("factor", "float", required=False, default=1.0)])
    unbounded = WpsProcess(description, run=lambda i: {"y": i["factor"]},
                           cost=lambda i: 1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(HttpError) as caught:
            unbounded.validate({"factor": bad})
        assert caught.value.status == 400
    assert unbounded.validate({"factor": 2.5}) == {"factor": 2.5}


def test_validate_rejects_values_with_no_json_form(sim):
    """Inputs key the result cache, so they must have a JSON spelling."""
    process = WpsProcess(ProcessDescription(
        identifier="echo", title="Echo",
        inputs=[InputSpec("payload", "string", required=False)]),
        run=lambda i: {"payload": i["payload"]}, cost=lambda i: 1.0)
    service, server, _ = deploy(sim, process)
    response, _ = execute(sim, server, "echo", {"payload": {1, 2}})
    assert response.status == 400
    assert "not a JSON value" in response.body["title"]
    ok, _ = execute(sim, server, "echo", {"payload": {"nested": [1, "a"]}})
    assert ok.body["outputs"] == {"payload": {"nested": [1, "a"]}}


# -- keys ---------------------------------------------------------------------------


def test_reuploading_a_rainfall_dataset_misses_the_cache(sim):
    warehouse = DataWarehouse(BlobStore(sim, name="data"))
    storm = [0.0] * 24 + [4.0, 9.0, 14.0, 6.0, 2.0] + [0.0] * 43
    warehouse.put_series("user/rain", TimeSeries(0, 3600, storm))
    process = make_topmodel_process(MORLAND, warehouse=warehouse)
    calls = count_executions(process)
    service, server, _ = deploy(sim, process)
    inputs = {"rainfall_dataset": "user/rain"}

    first, _ = execute(sim, server, process.identifier, inputs)
    again, _ = execute(sim, server, process.identifier, inputs)
    assert len(calls) == 1 and service.cache.hits == 1
    assert again.body["outputs"] == first.body["outputs"]

    warehouse.put_series("user/rain",
                         TimeSeries(0, 3600, [2 * v for v in storm]))
    updated, _ = execute(sim, server, process.identifier, inputs)
    assert len(calls) == 2
    assert updated.body["outputs"]["peak_mm_h"] > \
        first.body["outputs"]["peak_mm_h"]
    direct = make_topmodel_process(MORLAND, warehouse=warehouse)
    assert updated.body["outputs"] == direct.execute(direct.validate(inputs))


def test_the_same_inputs_of_another_process_never_share_an_entry(sim):
    doubler = WpsProcess(ProcessDescription(
        identifier="double", title="Double",
        inputs=[InputSpec("x", "float")]),
        run=lambda i: {"y": 2 * i["x"]}, cost=lambda i: 1.0,
        forcing=no_stored_data)
    tripler = WpsProcess(ProcessDescription(
        identifier="triple", title="Triple",
        inputs=[InputSpec("x", "float")]),
        run=lambda i: {"y": 3 * i["x"]}, cost=lambda i: 1.0,
        forcing=no_stored_data)
    service, _, _ = deploy(sim, doubler, tripler)
    assert service.compute(doubler, {"x": 2.0}) == {"y": 4.0}
    assert service.compute(tripler, {"x": 2.0}) == {"y": 6.0}
    assert service.cache.misses == 2


# -- copies -------------------------------------------------------------------------


def test_hits_and_misses_hand_out_copies(sim):
    process = make_topmodel_process(MORLAND)
    service, server, _ = deploy(sim, process)
    inputs = process.validate(SHORT)

    miss = service.compute(process, inputs)
    hit = service.compute(process, inputs)
    assert hit == miss
    assert hit["hydrograph_mm_h"] is not miss["hydrograph_mm_h"]
    miss["hydrograph_mm_h"][0] = -1.0
    hit["hydrograph_mm_h"].append(99.0)
    again = service.compute(process, inputs)
    assert again == process.execute(inputs)

    served, _ = execute(sim, server, process.identifier, SHORT)
    served.body["outputs"]["hydrograph_mm_h"].clear()
    later, _ = execute(sim, server, process.identifier, SHORT)
    assert later.body["outputs"] == again
    assert service.cache.misses == 1 and service.cache.hits == 4


# -- failures -----------------------------------------------------------------------


def test_a_cached_failure_replays_the_same_bodies(sim):
    process = make_topmodel_process(MORLAND)
    calls = count_executions(process)
    service, server, _ = deploy(sim, process)
    inputs = dict(SHORT, scenario="tsunami")

    first, _ = execute(sim, server, process.identifier, inputs)
    assert first.status == 500
    assert "unknown scenario 'tsunami'" in first.body["detail"]
    second, _ = execute(sim, server, process.identifier, inputs)
    assert second.status == 500
    assert second.body == first.body
    assert len(calls) == 1 and service.cache.hits == 1

    accepted, _ = execute(sim, server, process.identifier, inputs,
                          mode="async")
    status = status_of(sim, server, accepted)
    assert status["status"] == "failed"
    assert status["error"] == first.body["detail"]
    assert len(calls) == 1 and service.cache.hits == 2


def test_a_failure_outside_the_captured_families_is_not_cached(sim):
    attempts = []

    def flaky(inputs):
        attempts.append(inputs)
        raise RuntimeError("storage hiccup")

    process = WpsProcess(ProcessDescription(identifier="flaky",
                                            title="Flaky"),
                         run=flaky, cost=lambda i: 1.0,
                         forcing=no_stored_data)
    service, server, _ = deploy(sim, process)
    for _ in range(2):
        response, _ = execute(sim, server, "flaky", {})
        assert response.status == 500
    assert len(attempts) == 2 and len(service.cache) == 0


# -- accounting ---------------------------------------------------------------------


def test_a_hit_costs_the_same_simulated_time_and_still_lands_in_the_view(sim):
    process = make_topmodel_process(MORLAND)
    calls = count_executions(process)
    service, server, instance = deploy(sim, process)
    plane = DataPlane(sim, BlobStore(sim, name="dp"), consumer_count=1)
    service.attach_outbox(plane.outbox)

    busy_before = instance.cpu_busy_seconds
    miss, miss_seconds = execute(sim, server, process.identifier, SHORT)
    miss_busy = instance.cpu_busy_seconds - busy_before
    hit, hit_seconds = execute(sim, server, process.identifier, SHORT)
    hit_busy = instance.cpu_busy_seconds - busy_before - miss_busy
    assert len(calls) == 1 and service.cache.hits == 1

    assert hit_seconds == miss_seconds
    assert hit_busy == miss_busy
    assert miss_seconds >= process.cost(process.validate(SHORT)) \
        / instance.effective_speed
    assert hit.body["outputs"] == miss.body["outputs"]
    assert hit.body["runId"] != miss.body["runId"]

    plane.pump()
    rows = plane.runs.rows()
    assert [row["runId"] for row in rows] == [miss.body["runId"],
                                              hit.body["runId"]]
    assert all(row["status"] == "finished" for row in rows)
    assert rows[0]["peak_mm_h"] == rows[1]["peak_mm_h"]


def test_async_execute_shares_the_cache_with_sync(sim):
    process = make_topmodel_process(MORLAND)
    calls = count_executions(process)
    service, server, _ = deploy(sim, process)

    sync, _ = execute(sim, server, process.identifier, SHORT)
    accepted, _ = execute(sim, server, process.identifier, SHORT,
                          mode="async")
    assert accepted.status == 202
    status = status_of(sim, server, accepted)
    assert status["status"] == "succeeded"
    assert status["outputs"] == sync.body["outputs"]
    assert len(calls) == 1 and service.cache.hits == 1


def test_services_built_with_one_cache_share_it(sim):
    cache = RunCache(max_entries=8)
    process = make_topmodel_process(MORLAND)
    first, _, _ = deploy(sim, process, cache=cache)
    second, _, _ = deploy(sim, process, cache=cache)
    inputs = process.validate(SHORT)
    first.compute(process, inputs)
    second.compute(process, inputs)
    assert first.cache is second.cache is cache
    assert (cache.misses, cache.hits) == (1, 1)


def test_the_cache_stays_within_its_bound(sim):
    process = WpsProcess(ProcessDescription(
        identifier="double", title="Double",
        inputs=[InputSpec("x", "float")]),
        run=lambda i: {"y": [2 * i["x"]]}, cost=lambda i: 1.0,
        forcing=no_stored_data)
    service, server, _ = deploy(sim, process, cache=RunCache(max_entries=3))
    for x in range(7):
        response, _ = execute(sim, server, "double", {"x": float(x)})
        assert response.body["outputs"] == {"y": [2.0 * x]}
        assert len(service.cache) <= 3
    assert service.cache.evictions == 4


# -- processes that are not pure ---------------------------------------------------


def sum_workflow():
    workflow = Workflow("sums")
    workflow.add(WorkflowNode("a", lambda p, u: float(p["x"]),
                              params_used=("x",)))
    workflow.add(WorkflowNode("b", lambda p, u: u["a"] + 1.0,
                              depends_on=("a",)))
    workflow.add(WorkflowNode("c", lambda p, u: {"total": u["b"] * 2.0},
                              depends_on=("b",)))
    return workflow


def test_a_composite_runs_its_workflow_on_every_execute(sim):
    """A composite records a workflow run and reports its stage-cache
    hits, so serving it from the result cache would hand out a stale
    ``run_id`` and skip the run record."""
    engine = WorkflowEngine()
    composite = compose_wps_process(
        sum_workflow(), identifier="sums", title="Sums",
        inputs=[InputSpec("x", "float")], output_node="c", engine=engine)
    assert not composite.pure
    service, server, _ = deploy(sim, composite)

    first, _ = execute(sim, server, "sums", {"x": 1.0})
    second, _ = execute(sim, server, "sums", {"x": 1.0})
    accepted, _ = execute(sim, server, "sums", {"x": 1.0}, mode="async")
    third = status_of(sim, server, accepted)["outputs"]
    provenance = [first.body["outputs"]["provenance"],
                  second.body["outputs"]["provenance"],
                  third["provenance"]]
    assert [p["cache_hits"] for p in provenance] == [0, 3, 3]
    assert len({p["run_id"] for p in provenance}) == 3
    assert [r.run_id for r in engine.runs()] == \
        [p["run_id"] for p in provenance]
    assert first.body["outputs"]["total"] == 4.0

    engine.invalidate()
    fourth, _ = execute(sim, server, "sums", {"x": 1.0})
    assert fourth.body["outputs"]["provenance"]["cache_hits"] == 0
    assert len(engine.runs()) == 4
    assert (service.cache.hits, service.cache.misses) == (0, 0)
    assert len(service.cache) == 0
