"""FUSE — Framework for Understanding Structural Errors.

Clark et al. (2008)'s insight, reproduced here in miniature: conceptual
rainfall-runoff models differ mainly in a handful of structural
*decisions* (upper-layer architecture, percolation, baseflow, saturated
area, routing).  Enumerate the decisions and you get a family of
structurally distinct models from one code base — the "multi-model
ensemble FUSE" the paper deploys beside TOPMODEL.

:class:`FuseDecisions` names the choices, :class:`FuseModel` runs one
combination, and :func:`fuse_ensemble` enumerates and runs them all,
yielding the ensemble spread the LEFT widget can draw as uncertainty
bands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hydrology.timeseries import TimeSeries

try:
    import numpy as _np
except ImportError:                  # pragma: no cover - exercised in CI
    _np = None

#: Legal values for each structural decision.
DECISION_SPACE: Dict[str, Tuple[str, ...]] = {
    "upper_layer": ("single_state", "tension_free"),
    "percolation": ("linear", "power"),
    "baseflow": ("linear_reservoir", "nonlinear_reservoir"),
    "saturated_area": ("power_law", "linear"),
}


@dataclass(frozen=True)
class FuseDecisions:
    """One combination of structural choices."""

    upper_layer: str = "single_state"
    percolation: str = "linear"
    baseflow: str = "linear_reservoir"
    saturated_area: str = "power_law"

    def __post_init__(self) -> None:
        for name, allowed in DECISION_SPACE.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name}={value!r} not in {allowed}")

    def label(self) -> str:
        """Compact structure label, e.g. 'single_state/linear/...'."""
        return "/".join(getattr(self, name) for name in DECISION_SPACE)

    @staticmethod
    def all_combinations() -> List["FuseDecisions"]:
        """Every decision combination (the full ensemble)."""
        names = list(DECISION_SPACE)
        combos = itertools.product(*(DECISION_SPACE[n] for n in names))
        return [FuseDecisions(**dict(zip(names, combo))) for combo in combos]


@dataclass(frozen=True)
class FuseParameters:
    """Calibratable FUSE parameters shared across structures.

    ``smax_upper``/``smax_lower`` — storage capacities (mm).
    ``phi_tension`` — tension-storage fraction of the upper layer.
    ``k_perc``/``c_perc`` — percolation rate (mm/h) and exponent.
    ``k_base``/``n_base`` — baseflow rate constant (1/h) and exponent.
    ``b_sat`` — contributing-area exponent.
    ``routing_shape``/``routing_scale_h`` — gamma routing kernel.
    """

    smax_upper: float = 50.0
    smax_lower: float = 200.0
    phi_tension: float = 0.4
    k_perc: float = 2.0
    c_perc: float = 2.0
    k_base: float = 0.02
    n_base: float = 2.0
    b_sat: float = 1.5
    routing_shape: float = 2.5
    routing_scale_h: float = 2.0

    RANGES = {
        "smax_upper": (10.0, 150.0),
        "smax_lower": (50.0, 500.0),
        "phi_tension": (0.1, 0.9),
        "k_perc": (0.1, 10.0),
        "c_perc": (1.0, 5.0),
        "k_base": (0.001, 0.25),
        "n_base": (1.0, 4.0),
        "b_sat": (0.3, 4.0),
    }

    def validated(self) -> "FuseParameters":
        """Raise ValueError on physically meaningless values."""
        if self.smax_upper <= 0 or self.smax_lower <= 0:
            raise ValueError("storage capacities must be positive")
        if not 0 < self.phi_tension < 1:
            raise ValueError("phi_tension in (0, 1)")
        if self.k_perc <= 0 or self.k_base <= 0:
            raise ValueError("rate constants must be positive")
        if self.routing_shape <= 0 or self.routing_scale_h <= 0:
            raise ValueError("routing kernel parameters must be positive")
        return self

    def with_updates(self, **kwargs) -> "FuseParameters":
        """A copy with some fields replaced."""
        return replace(self, **kwargs).validated()


@dataclass
class FuseResult:
    """Output of one FUSE structure run."""

    flow: TimeSeries
    surface_runoff: TimeSeries
    baseflow: TimeSeries
    decisions: FuseDecisions

    def discharge_m3s(self, area_km2: float) -> TimeSeries:
        """Convert outlet runoff (mm/step) to discharge in m³/s."""
        factor = area_km2 * 1e6 * 1e-3 / self.flow.dt
        return self.flow.map(lambda v: v * factor)


class FuseModel:
    """One structural combination, runnable on a rainfall series."""

    def __init__(self, decisions: Optional[FuseDecisions] = None,
                 dt_hours: float = 1.0):
        if dt_hours <= 0:
            raise ValueError("dt_hours must be positive")
        self.decisions = decisions or FuseDecisions()
        self.dt_hours = dt_hours

    def run(self, rainfall: TimeSeries, pet: Optional[TimeSeries] = None,
            parameters: Optional[FuseParameters] = None) -> FuseResult:
        """Simulate; rainfall/PET in mm/step."""
        params = (parameters or FuseParameters()).validated()
        _check_pet(rainfall, pet)
        surface_out, base_out = self._runoff(rainfall, pet, params)
        total = [s + b for s, b in zip(surface_out, base_out)]
        routed = gamma_route(total, params.routing_shape,
                             params.routing_scale_h / self.dt_hours)
        return self._result(rainfall, routed, surface_out, base_out)

    def _runoff(self, rainfall: TimeSeries, pet: Optional[TimeSeries],
                params: FuseParameters) -> Tuple[List[float], List[float]]:
        """The unrouted (surface runoff, baseflow) series, in mm/step.

        The per-step arithmetic is spelled exactly as in the reference
        formulation (same operands, same order), with constants hoisted
        and ``max``/``min`` written as the comparisons they perform, so
        the output is bit-identical to it.
        """
        dt = self.dt_hours
        d = self.decisions
        single_state = d.upper_layer == "single_state"
        power_law = d.saturated_area == "power_law"
        linear_perc = d.percolation == "linear"
        linear_base = d.baseflow == "linear_reservoir"
        smax_upper = params.smax_upper
        smax_lower = params.smax_lower
        b_sat = params.b_sat
        c_perc = params.c_perc
        n_base = params.n_base
        perc_rate = params.k_perc * dt
        base_rate = params.k_base * dt
        base_scale = params.k_base * dt * params.smax_lower
        tension_cap = params.phi_tension * params.smax_upper
        free_cap = params.smax_upper - tension_cap

        upper = 0.3 * params.smax_upper
        tension = 0.3 * params.phi_tension * params.smax_upper
        free = 0.0
        lower = 0.3 * params.smax_lower

        surface_out: List[float] = []
        base_out: List[float] = []
        add_surface = surface_out.append
        add_base = base_out.append
        pets = itertools.repeat(0.0) if pet is None else pet._values

        for rain, pet_step in zip(rainfall._values, pets):
            # NaN compares False, so a gap counts as no rain / no PET
            rain = rain if rain > 0.0 else 0.0
            pet_step = pet_step if pet_step > 0.0 else 0.0

            # -- saturated contributing area from upper-layer wetness
            if single_state:
                wetness = upper / smax_upper
            else:
                wetness = (tension + free) / smax_upper
            wetness = wetness if wetness > 0.0 else 0.0
            wetness = wetness if wetness < 1.0 else 1.0
            contributing = wetness ** b_sat if power_law else wetness
            surface = rain * contributing
            infiltration = rain - surface

            # -- upper layer update + ET
            if single_state:
                upper += infiltration
                aet = pet_step * wetness
                upper = upper - aet
                upper = upper if upper > 0.0 else 0.0
                overflow = upper - smax_upper
                overflow = overflow if overflow > 0.0 else 0.0
                upper -= overflow
                upper_for_perc = upper
            else:
                room = tension_cap - tension
                to_tension = room if room < infiltration else infiltration
                tension += to_tension
                free += infiltration - to_tension
                aet = pet_step * (tension / tension_cap if tension_cap else 0.0)
                tension = tension - aet
                tension = tension if tension > 0.0 else 0.0
                overflow = free - free_cap
                overflow = overflow if overflow > 0.0 else 0.0
                free -= overflow
                upper_for_perc = free
            surface += overflow

            # -- percolation to the lower layer
            if linear_perc:
                perc = perc_rate * (upper_for_perc / smax_upper)
            else:
                perc = perc_rate * ((upper_for_perc / smax_upper) ** c_perc)
            if upper_for_perc < perc:
                perc = upper_for_perc
            if single_state:
                upper -= perc
            else:
                free -= perc
            lower += perc

            # -- baseflow from the lower layer
            if linear_base:
                baseflow = base_rate * lower
            else:
                rel_lower = lower / smax_lower
                rel_lower = rel_lower if rel_lower < 1.0 else 1.0
                baseflow = base_scale * rel_lower ** n_base
            if lower < baseflow:
                baseflow = lower
            lower -= baseflow
            lower_overflow = lower - smax_lower
            lower_overflow = lower_overflow if lower_overflow > 0.0 else 0.0
            lower -= lower_overflow
            baseflow += lower_overflow

            add_surface(surface)
            add_base(baseflow)
        return surface_out, base_out

    def _result(self, rainfall: TimeSeries, routed: List[float],
                surface_out: List[float],
                base_out: List[float]) -> FuseResult:
        start, series_dt = rainfall.start, rainfall.dt

        def ts(values, name):
            return TimeSeries._wrap_floats(start, series_dt, values,
                                           units="mm/step", name=name)

        return FuseResult(
            flow=ts(routed, f"fuse:{self.decisions.label()}"),
            surface_runoff=ts(surface_out, "surface_runoff"),
            baseflow=ts(base_out, "baseflow"),
            decisions=self.decisions,
        )


def _check_pet(rainfall: TimeSeries, pet: Optional[TimeSeries]) -> None:
    if pet is not None and len(pet) != len(rainfall):
        raise ValueError("PET series must match rainfall length")


def gamma_kernel(shape: float, scale_steps: float,
                 kernel_length: int = 48) -> List[float]:
    """The normalised discrete gamma unit hydrograph (``kernel_length``
    taps, sampled at step mid-points)."""
    if shape <= 0 or scale_steps <= 0:
        raise ValueError("gamma kernel parameters must be positive")
    kernel = []
    for i in range(kernel_length):
        t = i + 0.5
        kernel.append(t ** (shape - 1) * math.exp(-t / scale_steps))
    total = sum(kernel)
    return [k / total for k in kernel]


def gamma_route(flow: Sequence[float], shape: float,
                scale_steps: float, kernel_length: int = 48) -> List[float]:
    """Convolve ``flow`` with a discrete gamma unit hydrograph."""
    kernel = gamma_kernel(shape, scale_steps, kernel_length)
    return route_batch([flow], kernel)[0]


def route_batch(flows: Sequence[Sequence[float]],
                kernel: Sequence[float]) -> List[List[float]]:
    """Convolve each of ``flows`` (equal lengths) with one ``kernel``.

    Output ``i + j`` of a series gains ``flow[i] * kernel[j]`` for every
    nonzero ``flow[i]``, in ascending ``i`` — the accumulation order of
    routing one series at a time, so the result is bit-identical to it.
    Uses NumPy when it is installed, a pure-Python loop otherwise.
    """
    if _np is None or not flows:
        return [_route_scalar(flow, kernel) for flow in flows]
    return _route_numpy(flows, kernel)


def _route_scalar(flow: Sequence[float],
                  kernel: Sequence[float]) -> List[float]:
    out = [0.0] * len(flow)
    width = len(kernel)
    for i, q in enumerate(flow):
        if q == 0.0:
            continue
        window = out[i:i + width]
        out[i:i + len(window)] = [o + q * w for o, w in zip(window, kernel)]
    return out


def _route_numpy(flows: Sequence[Sequence[float]],
                 kernel: Sequence[float]) -> List[List[float]]:
    q = _np.array(flows, dtype=float).reshape(len(flows), -1)
    out = _np.zeros(q.shape)
    n = q.shape[1]
    # one pass per tap, last tap first: output t then receives
    # flow[i] * kernel[t - i] in ascending i, the scalar loop's order;
    # inf/NaN arise silently there, so NumPy must not warn about them
    with _np.errstate(all="ignore"):
        for j in range(min(len(kernel), n) - 1, -1, -1):
            w = kernel[j]
            contribution = q[:, :n - j] * w
            if not math.isfinite(w):
                # the scalar loop skips zero flow: 0 * inf never lands
                contribution[q[:, :n - j] == 0.0] = 0.0
            out[:, j:] += contribution
    return out.tolist()


@dataclass
class EnsembleResult:
    """The spread of an ensemble of FUSE structures."""

    members: List[FuseResult]
    mean: TimeSeries
    lower: TimeSeries       # 10th percentile across members
    upper: TimeSeries       # 90th percentile across members

    def member_labels(self) -> List[str]:
        """Structure labels in member order."""
        return [m.decisions.label() for m in self.members]


def fuse_ensemble(rainfall: TimeSeries, pet: Optional[TimeSeries] = None,
                  parameters: Optional[FuseParameters] = None,
                  decisions: Optional[Iterable[FuseDecisions]] = None,
                  dt_hours: float = 1.0) -> EnsembleResult:
    """Run every structure (or a chosen subset) and summarise the spread.

    Every member shares the routing kernel (it depends only on the
    parameters and ``dt_hours``), so the kernel is built once and all
    members are routed in one :func:`route_batch`; each member equals
    ``FuseModel(decisions, dt_hours).run(...)`` bit for bit.
    """
    combos = list(decisions) if decisions is not None \
        else FuseDecisions.all_combinations()
    if not combos:
        raise ValueError("empty ensemble")
    models = [FuseModel(combo, dt_hours=dt_hours) for combo in combos]
    params = (parameters or FuseParameters()).validated()
    _check_pet(rainfall, pet)
    runoff = [model._runoff(rainfall, pet, params) for model in models]
    kernel = gamma_kernel(params.routing_shape,
                          params.routing_scale_h / dt_hours)
    routed = route_batch([[s + b for s, b in zip(surface_out, base_out)]
                          for surface_out, base_out in runoff], kernel)
    members = [model._result(rainfall, flow, surface_out, base_out)
               for model, flow, (surface_out, base_out)
               in zip(models, routed, runoff)]
    mean_values, lo_values, hi_values = [], [], []
    for column in zip(*routed):
        column = sorted(column)
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


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        raise ValueError("empty column")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[int(rank)]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac
