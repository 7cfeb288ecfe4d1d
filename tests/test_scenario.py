"""Scenario parsing, validation, serialization, and hashing tests."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from leonav import geometry, orbits, rflink
from leonav.geometry import GroundGrid, TimeWindow
from leonav.orbits import EarthModel, WalkerSpec
from leonav.payload import ClockUnit
from leonav.rflink import JammerCalibration, MaterialLossTable
from leonav.schema import MAX_SAMPLES, MAX_SATS, MAX_SITES
from leonav.scenario import (
    GridConfig,
    LinkConfig,
    PayloadConfig,
    Scenario,
    ScenarioError,
    SweepConfig,
    WalkerConfig,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
    serialize_scenario,
)


#: Engine and physics parameters whose values a scenario field supplies.
SCENARIO_OWNED = {
    "earth", "earth_radius_km", "mask_deg", "percentile", "aggregation", "meo_altitude_km",
    "margin_db", "calibration", "materials", "n_sites",
}


def _public_callables(module):
    """Public functions of a module and public methods of its classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class/static methods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_scenario_owned_parameters_have_no_default():
    """The scenario records are the one place that states these values; a
    library default would silently replace a scenario's own figure."""
    found = {}
    for module in (geometry, orbits, rflink):
        for name, fn in _public_callables(module):
            for param in inspect.signature(fn).parameters.values():
                if param.name in SCENARIO_OWNED:
                    found[f"{module.__name__}.{name}({param.name})"] = param.default
    defaulted = [name for name, default in found.items() if default is not inspect.Parameter.empty]
    assert not defaulted
    assert len(found) >= 20  # the check sees the engine's signatures


class TestDefaults:
    def test_empty_object_is_default_scenario(self):
        assert parse_scenario("{}") == Scenario()

    def test_desk_scale_defaults(self):
        s = Scenario()
        assert s.walker.total_sats == 300
        assert s.walker.planes is None
        assert s.walker.altitude_km == 900.0
        assert s.walker.inclination_deg == 90.0
        assert s.walker.raan_spread_deg == 180.0
        assert s.grid.scheme == "fibonacci"
        assert s.grid.resolution == 500
        assert s.window.duration_s == 21600.0
        assert s.window.step_s == 120.0
        assert s.sweep.sizes == (200, 250, 300, 350, 400)
        assert s.sweep.altitudes_km == (600.0, 800.0, 1000.0, 1200.0, 1400.0)
        assert s.sweep.mask_deg == 5.0
        assert s.sweep.percentile == 95.0
        assert s.jammer.ref_power_w == 0.01
        assert s.jammer.ref_radius_m == 100.0
        assert s.payload.leo_signals == 2
        assert (s.payload.overhead_low, s.payload.overhead_high) == (0.0, 0.9)


class TestOverrides:
    def test_walker_section(self):
        s = parse_scenario(
            '{"walker": {"total_sats": 24, "planes": 6, "phasing": 2,'
            ' "altitude_km": 20182, "inclination_deg": 55, "raan_spread_deg": 360}}'
        )
        assert s.walker.total_sats == 24
        assert s.walker.planes == 6
        assert s.walker.phasing == 2
        assert s.walker.altitude_km == 20182.0
        assert s.walker.inclination_deg == 55.0
        assert s.walker.raan_spread_deg == 360.0

    def test_explicit_null_planes(self):
        s = parse_scenario('{"walker": {"planes": null}}')
        assert s.walker.planes is None

    def test_link_custom_frequency(self):
        s = parse_scenario('{"link": {"frequency_hz": 2.4e9}}')
        assert s.link.frequency_hz == 2.4e9
        assert s.link.carrier_hz == 2.4e9

    def test_materials_override(self):
        s = parse_scenario('{"materials": {"wood_db": 9}}')
        assert dict(s.materials.walls)["wood"] == 9.0
        assert dict(s.materials.walls)["brick"] == 12.0

    def test_payload_clocks(self):
        s = parse_scenario(
            '{"payload": {"clocks": ['
            '{"name": "csac", "unit_power_w": 0.12, "count": 3},'
            '{"name": "usO", "unit_power_w": 5.5}]}}'
        )
        clocks = s.payload.clocks
        assert [(c.name, c.unit_power_w, c.count) for c in clocks] == [
            ("csac", 0.12, 3),
            ("usO", 5.5, 1),
        ]

    def test_sweep_sizes_cast_to_int(self):
        s = parse_scenario('{"sweep": {"sizes": [100, 200.0]}}')
        assert s.sweep.sizes == (100, 200)

    def test_integral_floats_read_as_integers(self):
        s = parse_scenario('{"walker": {"total_sats": 24.0, "planes": 6.0}}')
        assert (s.walker.total_sats, s.walker.planes) == (24, 6)
        assert isinstance(s.walker.total_sats, int)


class TestRejections:
    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(ScenarioError, match=r"line 2, column 13: Expecting value"):
            parse_scenario('{\n  "walker": }\n')

    def test_root_must_be_object(self):
        with pytest.raises(ScenarioError, match="root must be a JSON object"):
            parse_scenario("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key scenario.'orbits'"):
            parse_scenario('{"orbits": {}}')

    def test_unknown_section_key_names_the_key(self):
        with pytest.raises(ScenarioError, match="unknown key walker.'alt_km'"):
            parse_scenario('{"walker": {"alt_km": 900}}')

    def test_error_lists_known_keys(self):
        with pytest.raises(ScenarioError, match="known keys: .*duration_s"):
            parse_scenario('{"window": {"dt": 60}}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"walker": {"total_sats": "many"}}', "walker.total_sats"),
            ('{"walker": {"total_sats": true}}', "walker.total_sats"),
            ('{"walker": {"total_sats": 0}}', "must be >= 1"),
            ('{"walker": {"total_sats": 10, "planes": 4}}', "does not divide"),
            ('{"walker": {"phasing": -1}}', "walker.phasing"),
            ('{"walker": {"inclination_deg": 181}}', "inclination_deg"),
            ('{"walker": {"raan_spread_deg": 90}}', "raan_spread_deg"),
            ('{"earth": {"radius_km": -1}}', "earth.radius_km"),
            ('{"grid": {"scheme": "icosahedral"}}', "grid.scheme"),
            ('{"grid": {"resolution": 0}}', "grid.resolution"),
            ('{"window": {"duration_s": 1000, "step_s": 300}}', "must divide"),
            ('{"sweep": {"percentile": 0}}', "sweep.percentile"),
            ('{"sweep": {"aggregation": "median"}}', "sweep.aggregation"),
            ('{"sweep": {"sizes": [0]}}', "sweep.sizes"),
            ('{"sweep": {"sizes": 300}}', "a list of numbers"),
            ('{"sweep": {"mask_deg": 90}}', "sweep.mask_deg"),
            ('{"link": {"reference": "S"}}', "link.reference"),
            ('{"link": {"frequency_hz": 0}}', "link.frequency_hz"),
            ('{"link": {"elevation_deg": 95}}', "link.elevation_deg"),
            ('{"link": {"footprint_masks_deg": [0, 90]}}', "footprint_masks_deg"),
            ('{"link": {"footprint_masks_deg": [5.0, 5.0000001]}}',
             "link.footprint_masks_deg: must differ at 6 significant digits"),
            ('{"link": {"footprint_masks_deg": [5.0, 5.0]}}', "link.footprint_masks_deg"),
            ('{"jammer": {"ref_power_w": 0}}', "jammer.ref_power_w"),
            ('{"jammer": {"margins_db": [-5]}}', "jammer.margins_db"),
            ('{"materials": {"wood_db": 0}}', "materials.wood_db"),
            ('{"payload": {"pa_efficiency": 1.2}}', "pa_efficiency"),
            ('{"payload": {"leo_signals": 0}}', "payload.leo_signals"),
            ('{"payload": {"overhead_low": 0.5, "overhead_high": 0.1}}', "overhead"),
            ('{"payload": {"clocks": [{"unit_power_w": 3}]}}', "clocks"),
            ('{"payload": {"clocks": [{"name": "x", "unit_power_w": 3, "w": 1}]}}', "clocks"),
            ('{"sweep": {"sizes": [250.7]}}', r"sweep.sizes\[0\]: must be an integer"),
            ('{"walker": {"total_sats": 100001}}',
             "walker.total_sats: must be >= 1 and <= 100000"),
            ('{"grid": {"resolution": 1e308}}',
             "grid.resolution: must be >= 1 and <= 1000000"),
            ('{"grid": {"resolution": 1000001}}', "grid.resolution"),
            ('{"sweep": {"sizes": [300, 1e29]}}',
             r"sweep.sizes\[1\]: must be >= 1 and <= 100000"),
            ('{"walker": {"altitude_km": NaN}}', "walker.altitude_km: must be finite"),
            ('{"earth": {"mu_km3_s2": -Infinity}}', "earth.mu_km3_s2: must be finite"),
            ('{"link": {"pathloss_altitudes_km": [Infinity]}}',
             r"link.pathloss_altitudes_km\[0\]: must be finite"),
            ('{"jammer": {"margins_db": []}}', "jammer.margins_db: must not be empty"),
            ('{"jammer": {"margins_db": [0, NaN]}}', r"jammer.margins_db\[1\]: must be finite"),
            ('{"payload": {"rf_output_w_high": 100}}', "payload: rf_output_w_high"),
            ('{"payload": {"clocks": [{"name": "x", "unit_power_w": 3, "count": 0}]}}',
             r"payload.clocks\[0\].count"),
        ],
    )
    def test_constraint_violations_name_the_key(self, text, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "build, text, message",
        [
            (lambda: SweepConfig(percentile=math.nan), '{"sweep": {"percentile": NaN}}',
             "sweep.percentile: must be finite"),
            (lambda: WalkerConfig(total_sats=0), '{"walker": {"total_sats": 0}}',
             r"walker.total_sats: must be >= 1"),
            (lambda: SweepConfig(mask_deg=90.0), '{"sweep": {"mask_deg": 90.0}}',
             r"sweep.mask_deg: must be in \[0, 90\)"),
            (lambda: WalkerConfig(total_sats=10, planes=4),
             '{"walker": {"total_sats": 10, "planes": 4}}', "walker: planes"),
            (lambda: EarthModel(radius_km=math.nan), '{"earth": {"radius_km": NaN}}',
             "earth.radius_km: must be finite"),
            (lambda: TimeWindow(duration_s=1000.0, step_s=300.0),
             '{"window": {"duration_s": 1000, "step_s": 300}}', "window: step_s"),
            (lambda: JammerCalibration(ref_power_w=0), '{"jammer": {"ref_power_w": 0}}',
             r"jammer.ref_power_w: must be in \[1e-09, 1e\+09\]"),
            (lambda: LinkConfig(reference="S"), '{"link": {"reference": "S"}}',
             "link.reference: must be one of"),
            (lambda: PayloadConfig(rf_output_w_high=100),
             '{"payload": {"rf_output_w_high": 100}}', "payload: rf_output_w_high"),
            (lambda: MaterialLossTable(wood_db=0), '{"materials": {"wood_db": 0}}',
             r"materials.wood_db: must be in \[0.001, 1000\]"),
            (lambda: LinkConfig(meo_altitude_km=1000.0), '{"link": {"meo_altitude_km": 1000}}',
             r"link: meo_altitude_km \(1000.0\) must exceed every footprint_altitudes_km"),
            (lambda: LinkConfig(pathloss_altitudes_km=(500.0, 0.5)),
             '{"link": {"pathloss_altitudes_km": [500, 0.5]}}',
             r"link.pathloss_altitudes_km\[1\]: must be in \[1, 1e\+06\]"),
            (lambda: PayloadConfig(overhead_high=11.0), '{"payload": {"overhead_high": 11}}',
             r"payload.overhead_high: must be in \[0, 10\]"),
            (lambda: Scenario(walker={"total_sats": 0}), '{"walker": {"total_sats": 0}}',
             r"^walker.total_sats: must be >= 1 and <= 100000 \(got 0\)$"),
            (lambda: Scenario(grid=None), '{"grid": null}',
             r"^grid: must be an object \(got None\)$"),
            (lambda: Scenario(payload={"clocks": [{"name": "x", "unit_power_w": 0}]}),
             '{"payload": {"clocks": [{"name": "x", "unit_power_w": 0}]}}',
             r"^payload.clocks\[0\].unit_power_w: must be in"),
            (lambda: Scenario(grid=GridConfig(resolution=10**6), window=TimeWindow(1e6, 1.0)),
             '{"grid": {"resolution": 1000000}, "window": {"duration_s": 1e6, "step_s": 1}}',
             r"^grid.resolution x window.duration_s / window.step_s \(1000000 sites x "
             rf"1000000 epochs\) must be <= {MAX_SAMPLES} samples$"),
        ],
    )
    def test_direct_construction_applies_the_same_rules(self, build, text, message):
        with pytest.raises(ScenarioError, match=message) as built:
            build()
        with pytest.raises(ScenarioError, match=message) as parsed:
            parse_scenario(text)
        assert str(built.value) == str(parsed.value)

    def test_section_must_be_object(self):
        with pytest.raises(ScenarioError, match="walker"):
            parse_scenario('{"walker": 7}')


class TestRootRecord:
    """The scenario is a record like its sections: built in Python from a
    section's object, it reads that object as the parser does."""

    def test_section_objects_build_their_records(self):
        built = Scenario(walker={"total_sats": 24}, grid={"scheme": "latlon"})
        assert built.walker == WalkerConfig(total_sats=24)
        text = '{"walker": {"total_sats": 24}, "grid": {"scheme": "latlon"}}'
        assert built == parse_scenario(text)
        assert scenario_hash(built) == scenario_hash(parse_scenario(serialize_scenario(built)))


class TestSampleBound:
    """Sites times epochs of one evaluation is bounded by ``MAX_SAMPLES``."""

    @staticmethod
    def _window(epochs: int) -> dict:
        return {"duration_s": 60.0 * epochs, "step_s": 60.0}

    def test_the_bound_itself_parses(self):
        epochs = MAX_SAMPLES // MAX_SITES
        scenario = Scenario(grid={"resolution": MAX_SITES}, window=self._window(epochs))
        assert scenario.grid.n_sites * scenario.window.n_epochs <= MAX_SAMPLES
        with pytest.raises(ScenarioError, match=rf"\({MAX_SITES} sites x {epochs + 1} epochs\)"):
            Scenario(grid={"resolution": MAX_SITES}, window=self._window(epochs + 1))

    def test_latlon_counts_the_sites_it_builds(self):
        """A latlon request of 20,202 sites builds 101 x 202 = 20,402: a
        window the request alone would fit is refused on the built count."""
        resolution = 20202
        grid = GridConfig(scheme="latlon", resolution=resolution)
        assert grid.n_sites == len(GroundGrid.latlon(resolution)) == 20402
        epochs = MAX_SAMPLES // grid.n_sites + 1
        assert resolution * epochs <= MAX_SAMPLES < grid.n_sites * epochs
        Scenario(grid={"resolution": resolution}, window=self._window(epochs))
        with pytest.raises(ScenarioError, match=r"\(20402 sites x"):
            Scenario(grid=grid, window=self._window(epochs))


@pytest.mark.parametrize("resolution", [1, 7, 120, 500])
@pytest.mark.parametrize("scheme", ["fibonacci", "latlon"])
def test_grid_section_builds_the_grid_it_counts(scheme, resolution):
    config = GridConfig(scheme=scheme, resolution=resolution)
    built, direct = config.build(), getattr(GroundGrid, scheme)(resolution)
    for name in ("lat_deg", "lon_deg", "weight"):
        np.testing.assert_array_equal(getattr(built, name), getattr(direct, name))
    assert len(built) == config.n_sites


#: Every parameter record: its key, arguments that build it, a number field
#: and an integer field (None where it has none).
RECORDS = [
    (EarthModel, "earth", {}, "radius_km", None),
    (WalkerSpec, "walker", {"total_sats": 24, "planes": 6}, "altitude_km", "total_sats"),
    (TimeWindow, "window", {}, "step_s", None),
    (ClockUnit, "clock", {"name": "x", "unit_power_w": 1.0}, "unit_power_w", "count"),
    (PayloadConfig, "payload", {}, "total_payload_w", "n_signals"),
    (LinkConfig, "link", {}, "frequency_hz", None),
    (JammerCalibration, "jammer", {}, "ref_power_w", None),
    (MaterialLossTable, "materials", {}, "glass_db", None),
]


#: An integer past the interpreter's str() digit limit: no message can
#: quote it in full, and no test id can either.
HUGE = 10**5000


def _bad_values():
    for cls, key, kwargs, number, integer in RECORDS:
        cases = [(number, v) for v in (math.nan, math.inf, -math.inf, True, HUGE)]
        if integer:
            cases += [(integer, v) for v in (1.5, True, math.nan)]
        for name, value in cases:
            label = "HUGE" if value is HUGE else value
            yield pytest.param(cls, kwargs, name, value, f"{key}.{name}",
                               id=f"{cls.__name__}-{name}-{label}")


class TestRecords:
    @pytest.mark.parametrize("cls, kwargs, name, value, where", _bad_values())
    def test_direct_construction_names_the_key(self, cls, kwargs, name, value, where):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(where)}: must be"):
            cls(**{**kwargs, name: value})

    def test_numpy_scalars_are_read_as_python_numbers(self):
        spec = WalkerSpec(np.int64(24), np.int32(6), altitude_km=np.float64(900))
        assert (spec.total_sats, spec.planes) == (24, 6)
        assert type(spec.total_sats) is int and type(spec.planes) is int
        assert type(spec.altitude_km) is float
        window = TimeWindow(np.float32(600), 300.0)
        assert window.duration_s == 600.0 and type(window.duration_s) is float
        assert window.n_epochs == 2

    def test_numpy_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="walker.total_sats: must be an integer"):
            WalkerSpec(np.bool_(True), 1)

    @pytest.mark.parametrize(
        "total_sats, planes, name",
        [(10**29, 1, "total_sats"), (MAX_SATS + 1, 1, "total_sats"), (24, 10**29, "planes")],
    )
    def test_walker_spec_keeps_the_size_bound(self, total_sats, planes, name):
        """A resolved spec built in Python meets the request's size rule."""
        with pytest.raises(
            ScenarioError, match=rf"^walker\.{name}: must be >= 1 and <= {MAX_SATS} \(got"
        ):
            WalkerSpec(total_sats, planes, phasing=0)
        assert WalkerSpec(MAX_SATS, MAX_SATS, phasing=0).sats_per_plane == 1

    def test_each_section_is_one_record(self):
        """No section splits its keys over a base record, except the jammer
        section, which extends the calibration its functions take."""
        for name, cls in typing.get_type_hints(Scenario).items():
            bases = [b for b in cls.__mro__[1:] if dataclasses.is_dataclass(b)]
            assert bases == ([JammerCalibration] if name == "jammer" else []), name
        assert Scenario().materials.walls == (
            ("wood", 10.0), ("brick", 12.0), ("concrete", 15.0),
            ("glass", 17.0), ("container", 25.0),
        )


class TestLenientMode:
    def test_unknown_keys_warn_and_continue(self, capsys):
        s = parse_scenario('{"walker": {"alt_km": 900}, "future": {}}', strict=False)
        assert s.walker.altitude_km == 900.0  # unknown key ignored, default kept
        err = capsys.readouterr().err
        assert "ignoring unknown key scenario.'future'" in err
        assert "ignoring unknown key walker.'alt_km'" in err

    def test_known_constraints_still_enforced(self):
        with pytest.raises(ScenarioError, match="total_sats"):
            parse_scenario('{"walker": {"total_sats": 0}}', strict=False)


class TestSerialization:
    def test_round_trip_default(self):
        s = Scenario()
        assert parse_scenario(serialize_scenario(s)) == s

    def test_round_trip_customized(self):
        text = json.dumps(
            {
                "walker": {"total_sats": 120, "planes": 10, "altitude_km": 750},
                "grid": {"scheme": "latlon", "resolution": 200},
                "sweep": {"sizes": [60, 120], "aggregation": "worst_site"},
                "jammer": {"margins_db": [0, 10]},
                "payload": {"leo_signals": 4},
            }
        )
        s = parse_scenario(text)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_serialization_is_canonical(self):
        text = serialize_scenario(Scenario())
        assert text.endswith("\n")
        data = json.loads(text)
        assert list(data) == sorted(data)
        # every section and key is explicit even when defaulted
        assert data["walker"]["planes"] is None
        assert data["link"]["frequency_hz"] is None
        assert data["sweep"]["sizes"] == [200, 250, 300, 350, 400]

    def test_to_dict_mirrors_scenario(self):
        d = scenario_to_dict(Scenario())
        assert set(d) == {
            "earth", "walker", "grid", "window", "sweep", "link", "jammer",
            "materials", "payload",
        }
        assert d["materials"] == {
            "wood_db": 10.0, "brick_db": 12.0, "concrete_db": 15.0,
            "glass_db": 17.0, "container_db": 25.0,
        }


    def test_readme_defaults_block_matches(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        block = re.search(r"Defaults .*?```json\n(.*?)```", readme, re.DOTALL)
        assert json.loads(block.group(1)) == scenario_to_dict(Scenario())


class TestHashing:
    def test_hash_is_stable(self):
        assert scenario_hash(Scenario()) == scenario_hash(parse_scenario("{}"))

    def test_hash_is_sha256_hex(self):
        h = scenario_hash(Scenario())
        assert len(h) == 64
        int(h, 16)  # should parse as hexadecimal

    def test_hash_changes_with_any_value(self):
        base = scenario_hash(Scenario())
        tweaked = scenario_hash(parse_scenario('{"walker": {"total_sats": 301}}'))
        assert base != tweaked

    def test_equivalent_inputs_hash_identically(self):
        a = parse_scenario('{"walker": {"altitude_km": 900}}')
        b = parse_scenario('{"walker": {"altitude_km": 900.0}}')
        assert scenario_hash(a) == scenario_hash(b)


#: Scenario hashes recorded before the schema was derived from the section
#: dataclasses; together the cases touch every section and value kind.
PINNED_HASHES = [
    ("{}", "f79e776ef9bfd35c523aa872234d080f258b4361e937c4f55e6ac5505e6a1cea"),
    (
        '{"earth": {"radius_km": 6371.0, "mu_km3_s2": 398600.0,'
        ' "rotation_rate_rad_s": 7.3e-05},'
        ' "walker": {"total_sats": 24, "planes": 6, "phasing": 2, "altitude_km": 20182,'
        ' "inclination_deg": 55, "raan_spread_deg": 360}}',
        "982084c5a8c84507887a596a7c4787a88870f1881356500fc22d3a2433cdc846",
    ),
    (
        '{"walker": {"total_sats": 120, "planes": null, "phasing": 0,'
        ' "altitude_km": 750.5},'
        ' "grid": {"scheme": "latlon", "resolution": 200},'
        ' "window": {"duration_s": 3600, "step_s": 600}}',
        "0da19567f56b978387ab3115f5624ead6c846470d3e11b5b1eda5407797669ad",
    ),
    (
        '{"sweep": {"sizes": [24, 36.0, 48], "altitudes_km": [800, 1000.5],'
        ' "mask_deg": 10, "percentile": 99.5, "aggregation": "worst_site"}}',
        "25cc4c1f043660729ddf0c2d31230fdb9e72b91c28b91027350720285e446120",
    ),
    (
        '{"link": {"reference": "L5", "frequency_hz": 2400000000.0,'
        ' "meo_altitude_km": 20182, "elevation_deg": 45,'
        ' "pathloss_altitudes_km": [500, 1000.25], "footprint_altitudes_km": [700],'
        ' "footprint_masks_deg": [0, 10, 30]}}',
        "84958a205c9060999e42638a9384fbf00d31855138efadc57ab10c98edeb1ff2",
    ),
    (
        '{"jammer": {"ref_power_w": 0.02, "ref_radius_m": 150, "margins_db": [0, 7.5],'
        ' "report_power_w": 1, "report_radius_m": 250},'
        ' "materials": {"wood_db": 9, "brick_db": 12.5, "concrete_db": 16,'
        ' "glass_db": 3, "container_db": 30}}',
        "0da9677a6cf1ca1e7f1b2e0cd4ca91da61efc384c565b7482bec3dccdc319e2e",
    ),
    (
        '{"payload": {"total_payload_w": 500, "rf_output_w_low": 100,'
        ' "rf_output_w_high": 150.5, "pa_efficiency": 0.6, "n_signals": 4,'
        ' "leo_signals": 3, "overhead_low": 0.1, "overhead_high": 0.5,'
        ' "clocks": [{"name": "csac", "unit_power_w": 0.12, "count": 3},'
        ' {"name": "uso", "unit_power_w": 5}]}}',
        "c999af71148169f34c9d360f22acb727326977edaee53d747b621f9959abf9f5",
    ),
    (
        '{"earth": {"radius_km": 1737.4, "mu_km3_s2": 4902.8,'
        ' "rotation_rate_rad_s": 2.6617e-06},'
        ' "walker": {"total_sats": 60, "altitude_km": 100},'
        ' "link": {"frequency_hz": null}}',
        "8fcafe6577bf49401557d7366bac65fbf9744d75dfb917a704afb87d3ebe3948",
    ),
]


@pytest.mark.parametrize("text, digest", PINNED_HASHES)
def test_pinned_scenario_hashes(text, digest):
    assert scenario_hash(parse_scenario(text)) == digest
