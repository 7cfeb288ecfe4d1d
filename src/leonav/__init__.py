"""leonav: constellation trade studies for LEO satellite navigation.

Quantifies the core trades of broadcasting navigation signals from low
Earth orbit instead of MEO: global dilution-of-precision statistics for
polar Walker constellations, free-space path-loss and footprint
advantages, jamming and material-penetration margins, and payload power
budgets.
"""

__version__ = "0.1.0"

from .geometry import (
    CONDITION_LIMIT,
    DopValues,
    GeometryError,
    GroundGrid,
    InsufficientGeometryError,
    NoCoverageError,
    PercentilePdop,
    SingularGeometryError,
    SiteObservation,
    TimeWindow,
    az_el_range,
    dop,
    pdop_field,
    pdop_samples,
    percentile_pdop,
    visible_sats,
    weighted_percentile,
)
from .orbits import (
    EARTH,
    EarthModel,
    EcefPosition,
    WalkerSpec,
    default_planes,
    site_to_ecef,
    walker_constellation,
)
from .payload import (
    ClockUnit,
    PayloadHeritage,
    clock_budget_w,
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from .rflink import (
    BAND_HZ,
    GALILEO_ALTITUDE_KM,
    GPS_ALTITUDE_KM,
    JammerCalibration,
    LinkParams,
    MaterialLossTable,
    PenetrationReport,
    coverage_half_angle_rad,
    footprint_area_km2,
    footprint_gain_db,
    fspl_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
    slant_range_km,
)
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash, serialize_scenario
from .tradestudy import (
    GPS_LIKE,
    SizingResult,
    SweepCell,
    SweepResult,
    gps_baseline,
    min_constellation_size,
    pdop_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
