"""LEFT — the Local EVOp Flooding Tool, assembled end-to-end.

Ties the pieces of Section V-B together for one catchment: the sensor
deployment and webcam, the catalogue entries the landing map shows, and
the modelling widget wired through the Resource Broker to the WPS
services in the cloud.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.broker.resource_broker import ResourceBroker
from repro.data.catalog import AssetCatalog, AssetOrigin, BoundingBox
from repro.data.catchments import Catchment
from repro.data.sensors import Sensor, SensorNetwork
from repro.data.webcam import WebcamArchive
from repro.hydrology.timeseries import TimeSeries
from repro.portal.basemap import MapView
from repro.portal.widgets import (
    ModellingWidget,
    MultimodalWidget,
    TimeSeriesWidget,
)
from repro.services.sos import SensorDescription
from repro.services.transport import Network
from repro.sim import RandomStreams, Simulator


class LeftTool:
    """The flooding tool for one catchment."""

    def __init__(self, sim: Simulator, catchment: Catchment,
                 catalog: AssetCatalog, network: Network,
                 broker: ResourceBroker, service_name: str,
                 streams: Optional[RandomStreams] = None,
                 resilient=None):
        self.sim = sim
        self.catchment = catchment
        self.catalog = catalog
        self.network = network
        self.broker = broker
        self.service_name = service_name
        # the shared resilience fabric (breakers, bulkheads, counters);
        # widgets fall back to a private one when none is supplied
        self.resilient = resilient
        self.streams = streams or RandomStreams()
        self.sensors = SensorNetwork(sim, streams=self.streams)
        self.webcam = WebcamArchive(
            sim, f"{catchment.name}-cam-1",
            catchment.latitude, catchment.longitude, catchment.name)
        self._built = False

    # -- deployment --------------------------------------------------------------

    def deploy_sensors(self, river_level_truth, rainfall_truth,
                       temperature_truth, turbidity_truth) -> None:
        """Install the in-situ instruments the workshops asked for."""
        base_lat, base_lon = self.catchment.latitude, self.catchment.longitude
        specs = [
            ("rain-1", "rainfall", "mm/h", rainfall_truth, 0.02),
            ("level-1", "river_level", "m", river_level_truth, 0.01),
            ("temp-1", "water_temperature", "degC", temperature_truth, 0.05),
            ("turb-1", "turbidity", "NTU", turbidity_truth, 0.5),
        ]
        for i, (suffix, prop, units, truth, noise) in enumerate(specs):
            self.sensors.add_sensor(
                SensorDescription(
                    procedure_id=f"{self.catchment.name}-{suffix}",
                    observed_property=prop,
                    units=units,
                    latitude=base_lat + 0.01 * i,
                    longitude=base_lon - 0.01 * i,
                    catchment=self.catchment.name,
                ),
                truth=truth,
                sampling_interval=900.0,
                noise_std=noise,
            )

    def build_catalog(self) -> None:
        """Register the map markers (Figure 4's landing page content)."""
        if self._built:
            return
        for procedure_id in self.sensors.procedures():
            description = self.sensors.describe(procedure_id)
            self.catalog.add(
                name=procedure_id,
                kind="sensor-feed",
                origin=AssetOrigin.IN_SITU,
                latitude=description.latitude,
                longitude=description.longitude,
                catchment=self.catchment.name,
                metadata={"observedProperty": description.observed_property},
            )
        self.catalog.add(
            name=self.webcam.camera_id, kind="webcam",
            origin=AssetOrigin.IN_SITU,
            latitude=self.webcam.latitude, longitude=self.webcam.longitude,
            catchment=self.catchment.name)
        self.catalog.add(
            name=f"{self.catchment.name} flood model", kind="model",
            origin=AssetOrigin.WAREHOUSED,
            latitude=self.catchment.latitude,
            longitude=self.catchment.longitude,
            catchment=self.catchment.name,
            access=self.service_name,
            metadata={"process": f"topmodel-{self.catchment.name}"})
        self._built = True

    def start_feeds(self, until: Optional[float] = None) -> None:
        """Start every live feed and the webcam capture loop."""
        self.sensors.start_all_feeds(until)
        level = self.sensors.sensor(f"{self.catchment.name}-level-1")
        self.webcam.start_capture(
            interval=1800.0, until=until,
            tagger=lambda t: {"stage_m": level.latest().value
                              if level.latest() else 0.0})

    # -- widgets --------------------------------------------------------------------

    def landing_page(self) -> MapView:
        """The interactive map centred on the catchment."""
        viewport = MapView.catchment_viewport(
            self.catchment.latitude, self.catchment.longitude)
        return MapView(self.catalog, viewport)

    def timeseries_widget(self, suffix: str) -> TimeSeriesWidget:
        """A graph widget for one of the catchment's sensors."""
        return TimeSeriesWidget(
            self.sensors.sensor(f"{self.catchment.name}-{suffix}"))

    def quality_controlled_series(self, suffix: str, begin: float,
                                  end: float):
        """A sensor's archive, gridded and QC'd, plus the QC report.

        The pre-processing the paper's introduction calls out: the raw
        feed goes through range/spike/flatline checks and gap filling
        before models or downloads see it.
        """
        from repro.data.quality import quality_control
        sensor = self.sensors.sensor(f"{self.catchment.name}-{suffix}")
        raw = sensor.to_timeseries(begin, end)
        return quality_control(raw, sensor.description.observed_property)

    def multimodal_widget(self) -> MultimodalWidget:
        """Figure 5's temperature+turbidity+webcam widget."""
        return MultimodalWidget(
            sensors=[
                self.sensors.sensor(f"{self.catchment.name}-temp-1"),
                self.sensors.sensor(f"{self.catchment.name}-turb-1"),
            ],
            webcam=self.webcam,
        )

    def open_modelling_widget(self, user_name: str,
                              model: str = "topmodel") -> ModellingWidget:
        """Open Figure 6's widget: connects the user through the RB."""
        session = self.broker.connect(user_name, self.service_name)
        return ModellingWidget(
            sim=self.sim,
            network=self.network,
            session=session,
            process_id=f"{model}-{self.catchment.name}",
            flood_threshold_mm_h=self.catchment.flood_threshold_mm_h,
            resilient=self.resilient,
        )
