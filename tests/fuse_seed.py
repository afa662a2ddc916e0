"""The FUSE implementation before batch routing, kept verbatim.

``seed_run`` is the former ``FuseModel.run`` (a function of the model
it was a method of), ``seed_gamma_route`` the former ``gamma_route``
and ``seed_fuse_ensemble`` the former ``fuse_ensemble``;
``seed_convolve`` is ``seed_gamma_route``'s convolution on its own, for
kernels the gamma formula cannot produce.  They are the oracle the
batched kernel must match bit for bit: ``tests/test_fuse_batch_identity.py``
checks it, ``benchmarks/bench_model_fastpath.py`` measures against it.
"""

import math
from typing import Iterable, List, Optional, Sequence

from repro.hydrology.fuse import (
    EnsembleResult,
    FuseDecisions,
    FuseModel,
    FuseParameters,
    FuseResult,
    _percentile,
)
from repro.hydrology.timeseries import TimeSeries


def seed_run(self, rainfall: TimeSeries, pet: Optional[TimeSeries] = None,
             parameters: Optional[FuseParameters] = None) -> FuseResult:
    """Simulate; rainfall/PET in mm/step."""
    params = (parameters or FuseParameters()).validated()
    if pet is not None and len(pet) != len(rainfall):
        raise ValueError("PET series must match rainfall length")
    dt = self.dt_hours
    d = self.decisions

    upper = 0.3 * params.smax_upper
    tension = 0.3 * params.phi_tension * params.smax_upper
    free = 0.0
    lower = 0.3 * params.smax_lower

    surface_out: List[float] = []
    base_out: List[float] = []

    for step in range(len(rainfall)):
        rain = rainfall[step]
        rain = 0.0 if math.isnan(rain) else max(0.0, rain)
        pet_step = 0.0 if pet is None else max(0.0, pet[step])

        # -- saturated contributing area from upper-layer wetness
        if d.upper_layer == "single_state":
            wetness = upper / params.smax_upper
        else:
            wetness = (tension + free) / params.smax_upper
        wetness = min(1.0, max(0.0, wetness))
        if d.saturated_area == "power_law":
            contributing = wetness ** params.b_sat
        else:
            contributing = wetness
        surface = rain * contributing
        infiltration = rain - surface

        # -- upper layer update + ET
        if d.upper_layer == "single_state":
            upper += infiltration
            aet = pet_step * wetness
            upper = max(0.0, upper - aet)
            overflow = max(0.0, upper - params.smax_upper)
            upper -= overflow
            upper_for_perc = upper
        else:
            tension_cap = params.phi_tension * params.smax_upper
            to_tension = min(infiltration, tension_cap - tension)
            tension += to_tension
            free += infiltration - to_tension
            aet = pet_step * (tension / tension_cap if tension_cap else 0.0)
            tension = max(0.0, tension - aet)
            free_cap = params.smax_upper - tension_cap
            overflow = max(0.0, free - free_cap)
            free -= overflow
            upper_for_perc = free
        surface += overflow

        # -- percolation to the lower layer
        if d.percolation == "linear":
            perc = params.k_perc * dt * (
                upper_for_perc / params.smax_upper)
        else:
            perc = params.k_perc * dt * (
                (upper_for_perc / params.smax_upper) ** params.c_perc)
        perc = min(perc, upper_for_perc)
        if d.upper_layer == "single_state":
            upper -= perc
        else:
            free -= perc
        lower += perc

        # -- baseflow from the lower layer
        rel_lower = min(1.0, lower / params.smax_lower)
        if d.baseflow == "linear_reservoir":
            baseflow = params.k_base * dt * lower
        else:
            baseflow = (params.k_base * dt * params.smax_lower
                        * rel_lower ** params.n_base)
        baseflow = min(baseflow, lower)
        lower -= baseflow
        lower_overflow = max(0.0, lower - params.smax_lower)
        lower -= lower_overflow
        baseflow += lower_overflow

        surface_out.append(surface)
        base_out.append(baseflow)

    total = [s + b for s, b in zip(surface_out, base_out)]
    routed = seed_gamma_route(total, params.routing_shape,
                              params.routing_scale_h / dt)
    start, series_dt = rainfall.start, rainfall.dt

    def ts(values, name):
        return TimeSeries(start, series_dt, values, units="mm/step",
                          name=name)

    return FuseResult(
        flow=ts(routed, f"fuse:{d.label()}"),
        surface_runoff=ts(surface_out, "surface_runoff"),
        baseflow=ts(base_out, "baseflow"),
        decisions=d,
    )

def seed_gamma_route(flow: Sequence[float], shape: float,
                scale_steps: float, kernel_length: int = 48) -> List[float]:
    """Convolve ``flow`` with a discrete gamma unit hydrograph."""
    if shape <= 0 or scale_steps <= 0:
        raise ValueError("gamma kernel parameters must be positive")
    kernel = []
    for i in range(kernel_length):
        t = i + 0.5
        kernel.append(t ** (shape - 1) * math.exp(-t / scale_steps))
    total = sum(kernel)
    kernel = [k / total for k in kernel]
    out = [0.0] * len(flow)
    for i, q in enumerate(flow):
        if q == 0.0:
            continue
        for j, w in enumerate(kernel):
            if i + j >= len(flow):
                break
            out[i + j] += q * w
    return out


def seed_convolve(flow: Sequence[float],
                  kernel: Sequence[float]) -> List[float]:
    """The convolution half of :func:`seed_gamma_route`, verbatim,
    for kernels the gamma formula cannot produce."""
    out = [0.0] * len(flow)
    for i, q in enumerate(flow):
        if q == 0.0:
            continue
        for j, w in enumerate(kernel):
            if i + j >= len(flow):
                break
            out[i + j] += q * w
    return out



def seed_fuse_ensemble(rainfall: TimeSeries, pet: Optional[TimeSeries] = None,
                       parameters: Optional[FuseParameters] = None,
                       decisions: Optional[Iterable[FuseDecisions]] = None,
                       dt_hours: float = 1.0) -> EnsembleResult:
    """Run every structure (or a chosen subset) and summarise the spread."""
    combos = list(decisions) if decisions is not None \
        else FuseDecisions.all_combinations()
    if not combos:
        raise ValueError("empty ensemble")
    members = [seed_run(FuseModel(combo, dt_hours=dt_hours), rainfall, pet,
                        parameters)
               for combo in combos]
    n = len(rainfall)
    mean_values, lo_values, hi_values = [], [], []
    for i in range(n):
        column = sorted(m.flow[i] for m in members)
        mean_values.append(sum(column) / len(column))
        lo_values.append(_percentile(column, 10))
        hi_values.append(_percentile(column, 90))
    make = lambda vals, name: TimeSeries(rainfall.start, rainfall.dt, vals,
                                         units="mm/step", name=name)
    return EnsembleResult(
        members=members,
        mean=make(mean_values, "fuse:ensemble-mean"),
        lower=make(lo_values, "fuse:p10"),
        upper=make(hi_values, "fuse:p90"),
    )
