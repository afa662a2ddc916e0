"""WPS process definitions for the hydrological models.

Each factory turns a catchment-bound model into a
:class:`~repro.services.wps.WpsProcess`: declared inputs (with the
bounds the widget sliders render), a cost estimator proportional to the
simulated span, and a run function that generates the catchment's
weather, applies the chosen scenario, executes the model and returns the
hydrograph plus the summary numbers the widget displays.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.data.catchments import Catchment
from repro.data.weather import DesignStorm
from repro.hydrology.fuse import FuseModel, FuseParameters
from repro.hydrology.hydrograph import HydrographAnalysis
from repro.hydrology.scenarios import STANDARD_SCENARIOS
from repro.hydrology.topmodel import TopmodelParameters
from repro.services.wps import InputSpec, ProcessDescription, WpsProcess
from repro.sim import RandomStreams

#: CPU-seconds charged per simulated hour per TI class (reference core).
_COST_PER_HOUR = 0.004
#: Fixed overhead of staging data and writing outputs.
_COST_OVERHEAD = 0.4

_SCENARIO_KEYS = tuple(STANDARD_SCENARIOS)


def _common_inputs() -> list:
    return [
        InputSpec("rainfall_dataset", "string", required=False,
                  abstract=("Warehouse id of a user-provided rainfall "
                            "series; overrides the generated weather")),
        InputSpec("duration_hours", "int", required=False, default=168,
                  minimum=24, maximum=24 * 90,
                  abstract="Simulated span in hours"),
        InputSpec("storm_depth_mm", "float", required=False, default=60.0,
                  minimum=0.0, maximum=250.0,
                  abstract="Design storm total depth"),
        InputSpec("storm_start_hour", "int", required=False, default=24,
                  minimum=0, maximum=24 * 30),
        InputSpec("storm_duration_hours", "int", required=False, default=8,
                  minimum=1, maximum=72),
        InputSpec("weather_seed", "int", required=False, default=1,
                  minimum=0, maximum=10_000_000,
                  abstract="Seed of the stochastic weather realisation"),
        InputSpec("scenario", "string", required=False, default="baseline",
                  abstract=f"One of {', '.join(_SCENARIO_KEYS)}"),
    ]


def _storm_rainfall(catchment: Catchment, inputs: Dict[str, Any],
                    warehouse=None):
    generator = catchment.weather_generator(
        RandomStreams(int(inputs["weather_seed"])))
    dataset_id = inputs.get("rainfall_dataset")
    if dataset_id:
        if warehouse is None:
            raise ValueError("rainfall_dataset given but the process has "
                             "no warehouse attached")
        rain = warehouse.get_series(dataset_id)
        hours = len(rain)
    else:
        storm = DesignStorm(
            start_hour=int(inputs["storm_start_hour"]),
            duration_hours=int(inputs["storm_duration_hours"]),
            total_depth_mm=float(inputs["storm_depth_mm"]),
        )
        hours = int(inputs["duration_hours"])
        rain = generator.rainfall_with_storm(hours, storm,
                                             start_day_of_year=330)
    pet = generator.daily_pet(hours, start_day_of_year=330)
    return rain, pet


def _dataset_etag(warehouse):
    """The forcing digest of a process reading ``rainfall_dataset``.

    The dataset's etag changes whenever it is re-uploaded, so a cached
    result of the old upload is never served for the new one.
    """
    def forcing(inputs: Dict[str, Any]) -> str:
        dataset_id = inputs.get("rainfall_dataset")
        if not dataset_id or warehouse is None:
            return ""
        return warehouse.etag_of(dataset_id)

    return forcing


def _scenario(inputs: Dict[str, Any]):
    key = inputs.get("scenario") or "baseline"
    if key not in STANDARD_SCENARIOS:
        raise ValueError(f"unknown scenario {key!r}; "
                         f"choose from {_SCENARIO_KEYS}")
    return STANDARD_SCENARIOS[key]


def _summarise(flow, rain, catchment: Catchment) -> Dict[str, Any]:
    analysis = HydrographAnalysis(flow, rain)
    threshold = catchment.flood_threshold_mm_h
    return {
        "hydrograph_mm_h": flow.values,
        "rainfall_mm_h": rain.values,
        "dt_seconds": flow.dt,
        "peak_mm_h": analysis.peak(),
        "peak_time_hours": flow.argmax_time() / 3600.0,
        "volume_mm": analysis.total_volume(),
        "threshold_mm_h": threshold,
        "threshold_exceeded": analysis.peak() > threshold,
        "exceedance_fraction": analysis.exceedance_fraction(threshold),
        "events_above_threshold": len(analysis.events_above(threshold)),
    }


def make_topmodel_process(catchment: Catchment, warehouse=None) -> WpsProcess:
    """TOPMODEL as a WPS process for ``catchment``.

    Slider-facing model parameters (``m``, ``srmax``, ``q0_mm_h``,
    ``td``) override the scenario defaults, mirroring the widget where
    "sliders default to the settings for each scenario".  With a
    ``warehouse`` attached, the ``rainfall_dataset`` input lets users run
    the model on data they uploaded themselves.
    """
    description = ProcessDescription(
        identifier=f"topmodel-{catchment.name}",
        title=f"TOPMODEL ({catchment.display_name})",
        abstract=("Saturation-excess rainfall-runoff model driven by the "
                  "catchment's topographic index distribution."),
        inputs=_common_inputs() + [
            InputSpec("m", "float", required=False,
                      minimum=TopmodelParameters.RANGES["m"][0],
                      maximum=TopmodelParameters.RANGES["m"][1]),
            InputSpec("srmax", "float", required=False,
                      minimum=TopmodelParameters.RANGES["srmax"][0],
                      maximum=TopmodelParameters.RANGES["srmax"][1]),
            InputSpec("td", "float", required=False,
                      minimum=TopmodelParameters.RANGES["td"][0],
                      maximum=TopmodelParameters.RANGES["td"][1]),
            InputSpec("q0_mm_h", "float", required=False, default=0.3,
                      minimum=TopmodelParameters.RANGES["q0_mm_h"][0],
                      maximum=TopmodelParameters.RANGES["q0_mm_h"][1]),
        ],
        outputs=["hydrograph_mm_h", "peak_mm_h", "peak_time_hours",
                 "volume_mm", "threshold_exceeded", "saturated_fraction_max"],
    )
    model = catchment.topmodel()

    def run(inputs: Dict[str, Any]) -> Dict[str, Any]:
        rain, pet = _storm_rainfall(catchment, inputs, warehouse)
        scenario = _scenario(inputs)
        base = TopmodelParameters(q0_mm_h=float(inputs["q0_mm_h"]))
        overrides = {name: float(inputs[name])
                     for name in ("m", "srmax", "td")
                     if inputs.get(name) is not None}
        if overrides:
            base = base.with_updates(**overrides)
        result = scenario.run(model, rain, pet=pet, base_parameters=base)
        outputs = _summarise(result.flow, rain, catchment)
        outputs["saturated_fraction_max"] = result.saturated_fraction.maximum()
        outputs["scenario"] = scenario.key
        outputs["model"] = "topmodel"
        return outputs

    def cost(inputs: Dict[str, Any]) -> float:
        return _COST_OVERHEAD + _COST_PER_HOUR * float(inputs["duration_hours"])

    return WpsProcess(description, run=run, cost=cost,
                      forcing=_dataset_etag(warehouse))


def make_water_quality_process(catchment: Catchment,
                               warehouse=None) -> WpsProcess:
    """Water quality as a WPS process — the stakeholders' next storyboard.

    Runs TOPMODEL under the chosen land-use scenario, then the
    export-coefficient water-quality model on top, reporting sediment
    and nutrient concentrations and loads at the outlet.
    """
    from repro.hydrology.water_quality import WaterQualityModel

    description = ProcessDescription(
        identifier=f"water-quality-{catchment.name}",
        title=f"Catchment water quality ({catchment.display_name})",
        abstract=("Sediment rating-curve and export-coefficient nutrient "
                  "model driven by the catchment's TOPMODEL simulation."),
        inputs=_common_inputs() + [
            InputSpec("sediment_a", "float", required=False,
                      minimum=1.0, maximum=500.0,
                      abstract="Sediment rating coefficient"),
        ],
        outputs=["sediment_mgl", "nitrate_mgl", "phosphorus_mgl",
                 "peak_sediment_mgl", "sediment_load_kg",
                 "nitrate_load_kg", "phosphorus_load_kg"],
    )
    model = catchment.topmodel()

    def run(inputs: Dict[str, Any]) -> Dict[str, Any]:
        rain, pet = _storm_rainfall(catchment, inputs, warehouse)
        scenario = _scenario(inputs)
        hydrology = scenario.run(model, rain, pet=pet,
                                 base_parameters=TopmodelParameters(
                                     q0_mm_h=0.3))
        quality_model = WaterQualityModel()
        if inputs.get("sediment_a") is not None:
            quality_model = WaterQualityModel(
                quality_model.parameters.with_updates(
                    sediment_a=float(inputs["sediment_a"])))
        result = quality_model.run(hydrology, scenario=scenario.key)
        outputs: Dict[str, Any] = result.summary(catchment.area_km2)
        outputs["sediment_mgl"] = result.sediment_mgl.values
        outputs["nitrate_mgl"] = result.nitrate_mgl.values
        outputs["phosphorus_mgl"] = result.phosphorus_mgl.values
        outputs["dt_seconds"] = result.flow.dt
        outputs["model"] = "water-quality"
        return outputs

    def cost(inputs: Dict[str, Any]) -> float:
        # a flow simulation plus the chemistry pass
        return (_COST_OVERHEAD
                + 1.3 * _COST_PER_HOUR * float(inputs["duration_hours"]))

    return WpsProcess(description, run=run, cost=cost,
                      forcing=_dataset_etag(warehouse))


def make_fuse_process(catchment: Catchment, warehouse=None) -> WpsProcess:
    """The FUSE ensemble as a WPS process for ``catchment``.

    Runs all 16 structures and returns the ensemble mean and spread —
    the uncertainty presentation the stakeholders asked for.
    """
    description = ProcessDescription(
        identifier=f"fuse-{catchment.name}",
        title=f"FUSE ensemble ({catchment.display_name})",
        abstract=("Multi-model ensemble over the FUSE structural decision "
                  "space; reports the mean hydrograph and the 10-90% "
                  "structure spread."),
        inputs=_common_inputs() + [
            InputSpec("smax_upper", "float", required=False,
                      minimum=FuseParameters.RANGES["smax_upper"][0],
                      maximum=FuseParameters.RANGES["smax_upper"][1]),
            InputSpec("k_base", "float", required=False,
                      minimum=FuseParameters.RANGES["k_base"][0],
                      maximum=FuseParameters.RANGES["k_base"][1]),
        ],
        outputs=["hydrograph_mm_h", "lower_mm_h", "upper_mm_h",
                 "peak_mm_h", "members"],
    )

    def run(inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.hydrology.fuse import fuse_ensemble
        rain, pet = _storm_rainfall(catchment, inputs, warehouse)
        overrides = {name: float(inputs[name])
                     for name in ("smax_upper", "k_base")
                     if inputs.get(name) is not None}
        params = FuseParameters().with_updates(**overrides) if overrides \
            else FuseParameters()
        # scenarios adjust TOPMODEL parameters; for FUSE the equivalent
        # knob is rainfall interception, applied as a pre-filter
        scenario = _scenario(inputs)
        if scenario.parameter_updates.get("interception_mm"):
            depth = scenario.parameter_updates["interception_mm"]
            rain = rain.map(lambda v: max(0.0, v - depth))
        ensemble = fuse_ensemble(rain, pet=pet, parameters=params)
        outputs = _summarise(ensemble.mean, rain, catchment)
        outputs["lower_mm_h"] = ensemble.lower.values
        outputs["upper_mm_h"] = ensemble.upper.values
        outputs["members"] = ensemble.member_labels()
        outputs["scenario"] = scenario.key
        outputs["model"] = "fuse"
        return outputs

    def cost(inputs: Dict[str, Any]) -> float:
        # 16 structures: an ensemble costs what 16 single runs cost
        single = _COST_OVERHEAD + _COST_PER_HOUR * float(inputs["duration_hours"])
        return single * 16

    return WpsProcess(description, run=run, cost=cost,
                      forcing=_dataset_etag(warehouse))
