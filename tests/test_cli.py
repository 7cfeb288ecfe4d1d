"""End-to-end command-line tests: every subcommand, format, and exit code."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leonav
from leonav.cli import _REPORTS, main

from conftest import TINY, finite_json, see_cpus


def write_config(tmp_path, extra: dict | None = None) -> str:
    data = {**TINY, **(extra or {})}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))


class TestStaticReports:
    """Subcommands that need no orbit propagation run on the default scenario."""

    def test_pathloss_csv(self, tmp_path):
        out = tmp_path / "pathloss.csv"
        assert main(["pathloss", "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        assert rows[0] == ["altitude_km", "slant_range_km", "fspl_db"]
        assert len(rows) == 1 + 11
        assert float(rows[1][0]) == 500.0

    def test_footprint_json(self, tmp_path):
        out = tmp_path / "footprint.json"
        assert main(["footprint", "--format", "json", "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "series"
        assert doc["columns"] == ["altitude_km", "gain_db_mask0", "gain_db_mask30"]
        assert len(doc["rows"]) == 10
        assert doc["units"]["gain_db_mask0"] == "dB"

    def test_jammer_csv(self, tmp_path):
        out = tmp_path / "jammer.csv"
        assert main(["jammer", "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["margin_db", "canopy"]
        assert [r[1] for r in rows[1:]] == [
            "Limited", "Deciduous", "Redwoods", "Most", "Most",
        ]

    def test_power_json(self, tmp_path):
        out = tmp_path / "power.json"
        assert main(["power", "--format", "json", "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [row[0] for row in doc["rows"]] == [
            "heritage_payload_w", "clock_budget_w", "signal_generation_w",
            "per_signal_bus_w", "leo_payload_w", "gnss_equivalent_w",
        ]

    def test_pathloss_stdout_default(self, capsys):
        assert main(["pathloss", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("altitude_km,slant_range_km,fspl_db")

    def test_pathloss_svg(self, tmp_path):
        out = tmp_path / "pathloss.svg"
        assert main(["pathloss", "--format", "svg", "--out", str(out), "--quiet"]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<svg ")
        assert "<polyline " in text


class TestEngineCommands:
    def test_dop_map(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "map.csv"
        assert main(["dop-map", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        assert rows[0] == [
            "lat_deg", "lon_deg", "weight", "pdop_p95", "coverage_fraction",
        ]
        assert len(rows) == 1 + 64

    def test_dop_map_names_the_design_it_runs(self, tmp_path, capsys):
        # 26 = 2 x 13 is not plane-friendly, so the map runs 25/5/1
        cfg = write_config(tmp_path, {"walker": {"total_sats": 26}})
        assert main(["dop-map", "--config", cfg, "--out", str(tmp_path / "m.csv")]) == 0
        err = capsys.readouterr().err
        assert "dop-map: Walker 25/5/1 at 900 km" in err

    def test_dop_map_small_body(self, tmp_path):
        cfg = write_config(tmp_path, {
            "earth": {"radius_km": 1737.4, "mu_km3_s2": 4902.8,
                      "rotation_rate_rad_s": 2.6617e-6},
            "walker": {"total_sats": 60, "altitude_km": 100.0},
        })
        out = tmp_path / "moon.csv"
        assert main(["dop-map", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 64
        assert any(row[3] for row in rows[1:])

    def test_dop_sweep_json_matrix(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.json"
        assert main([
            "dop-sweep", "--config", cfg, "--format", "json",
            "--out", str(out), "--quiet",
        ]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "matrix"
        assert doc["axes"] == {
            "requested_sats": [24, 36],
            "altitude_km": [800.0, 1000.0],
        }
        assert len(doc["rows"]) == 4
        assert doc["columns"] == [
            "requested_sats", "total_sats", "planes", "altitude_km",
            "pdop_p95", "coverage_fraction",
        ]

    def test_dop_sweep_svg_heatmap(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.svg"
        assert main([
            "dop-sweep", "--config", cfg, "--format", "svg",
            "--out", str(out), "--quiet",
        ]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("<rect ") == 1 + 4  # background + one cell per point
        assert "pdop_p95" in text

    @pytest.mark.parametrize("sizes, legend", [
        ([48], "pdop_p95: 22.1282 (dark) to 22.1282 (bright)"),  # one cell
        ([1, 2], "pdop_p95: no data"),  # every cell a hole
    ])
    def test_dop_sweep_legend_quotes_the_cell_values(self, tmp_path, sizes, legend):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "grid": {"resolution": 40},
            "window": {"duration_s": 1200.0, "step_s": 600.0},
            "sweep": {"sizes": sizes, "altitudes_km": [900.0]},
        }), encoding="utf-8")
        out = tmp_path / "sweep.svg"
        assert main([
            "dop-sweep", "--config", str(cfg), "--format", "svg", "--out", str(out), "--quiet",
        ]) == 0
        assert re.findall(r">(pdop_p95: [^<]*)</text>", out.read_text(encoding="utf-8")) == [
            legend
        ]

    def test_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["baseline", "--config", cfg, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "baseline: GPS-like 24/6/1" in captured.err
        doc = json.loads(captured.out)
        row = doc["rows"][0]
        assert row[0] == 24 and row[1] == 6 and row[2] == 20182.0
        assert row[4] == 1.0  # full coverage
        assert 1.0 < row[3] < 4.0

    def test_optimize_with_explicit_target(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "optimize.json"
        assert main([
            "optimize", "--config", cfg, "--target-pdop", "10",
            "--altitude-km", "900", "--ceiling", "600",
            "--format", "json", "--out", str(out), "--quiet",
        ]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["reachable"] is True
        assert row["target_pdop"] == 10.0
        assert row["altitude_km"] == 900.0
        assert row["achieved_pdop"] <= 10.0
        assert row["coverage_fraction"] == 1.0
        assert row["total_sats"] % row["planes"] == 0

    def test_threads_do_not_change_output_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        see_cpus(monkeypatch, 8)  # so the worker count is min(threads, cells)
        # The second sweep holds a no-coverage cell (1 satellite) and two
        # sizes that snap to one design (36 and 37 run 36/6).
        for extra in ({}, {"sweep": {"sizes": [1, 36, 37], "altitudes_km": [800.0, 1000.0]}}):
            cfg = write_config(tmp_path, extra)
            for fmt in ("csv", "json", "svg"):
                outputs = {}
                for threads in ("1", "2", "3", "8"):
                    out = tmp_path / f"sweep{threads}.{fmt}"
                    assert main([
                        "dop-sweep", "--config", cfg, "--threads", threads,
                        "--format", fmt, "--out", str(out), "--quiet",
                    ]) == 0
                    outputs[threads] = out.read_bytes()
                assert len(set(outputs.values())) == 1, (extra, fmt)

    def test_threads_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LEO_NAV_THREADS", "2")
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["dop-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    def test_threads_env_var_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEO_NAV_THREADS", "many")
        cfg = write_config(tmp_path)
        assert main(["dop-sweep", "--config", cfg, "--quiet"]) == 1
        assert "LEO_NAV_THREADS" in capsys.readouterr().err

    def test_progress_line_gives_the_processes_that_run(self, tmp_path, monkeypatch, capsys):
        see_cpus(monkeypatch, 2)
        forks = []
        fork = os.fork

        def counting():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting, raising=False)
        cfg = write_config(tmp_path)  # 2 sizes x 2 altitudes
        out = tmp_path / "sweep.csv"
        assert main(["dop-sweep", "--config", cfg, "--threads", "4", "--out", str(out)]) == 0
        processes = 2 if sys.platform == "linux" else 1
        assert f"2 altitudes, {processes} process(es)" in capsys.readouterr().err
        assert len(forks) == processes - 1


#: A small scenario on which every report runs in milliseconds.
PIN_SCENARIO = {
    "grid": {"resolution": 60},
    "window": {"duration_s": 1200.0, "step_s": 600.0},
    "walker": {"total_sats": 120, "altitude_km": 1000.0},
    "sweep": {"sizes": [96, 120], "altitudes_km": [900.0, 1000.0], "percentile": 90.0},
}

PIN_FLAGS = {
    "dop-sweep": ["--threads", "2"],
    "optimize": ["--altitude-km", "1000", "--target-pdop", "3", "--ceiling", "300"],
}

#: SHA-256 of every report on PIN_SCENARIO in every format; None marks a
#: table report, which has no SVG form and exits 1.  Any change to a
#: report's bytes must change this table on purpose.
PINNED_REPORTS = {
    ("dop-map", "csv"): "3a53dafb62604204f01b93c041b0ce91ae8b5fac2f06d6754a65051a072f7821",
    ("dop-map", "json"): "13856f185543dcbbe74f300136684211f14ff6f764f1e28edde820e0b88f1ed5",
    ("dop-map", "svg"): None,
    ("dop-sweep", "csv"): "8851a25d34501adf7496201f23c381c3d5fad1bcd020cb9f7328f1b2595ad7c6",
    ("dop-sweep", "json"): "3ecee1d48a899abeb6cbdb7929f3a077883151b1616073593f1bfb40259034f3",
    ("dop-sweep", "svg"): "77bbab348ff998dba3a2747adebbd42f685fab6ac8f0e151d05e91d9cfefb254",
    ("optimize", "csv"): "84d128e5df7e51f7f900043120cafb4d3642c3e37d500b3298cd5679313d493c",
    ("optimize", "json"): "687b7e5da31e3ac0ba91a13ced6aee16d334e6bf09dcc8e1b6fb337b0e0e88c3",
    ("optimize", "svg"): None,
    ("baseline", "csv"): "6dcc56448c62a0e11bc42ea6cf1057199433806e519934d3a6144a9a4115f222",
    ("baseline", "json"): "db40363570c94e69bfb79a3672dbc0692db34195ad9cc50bf288d381e0bc19b0",
    ("baseline", "svg"): None,
    ("pathloss", "csv"): "7254c1c65fba0b6c72bc4f7528ddc1f0be1b7a4e1ae8f6d27aba84025e98b8c7",
    ("pathloss", "json"): "220be48177f3f0dd79f03a5e02de0c20a7a0b0f9ee20fecf36f906fe2f8a2925",
    ("pathloss", "svg"): "39f7a6a5fd485841a9ec4f6fc49b2f3bbf2d25571274ab65dd199d9a038a120e",
    ("footprint", "csv"): "bc4c286358a3ccfe58bb2bb0f65253abb932bf806d5447f6ff13e5de1d00a533",
    ("footprint", "json"): "5bc32dab885520929a75838e0ab0a16af96a721bb0b0d4f176432b135264e58c",
    ("footprint", "svg"): "ec214967ebe6e3fca8357cef29f9ffc59193798b7ce81a81359f56c52b4a4da3",
    ("jammer", "csv"): "641711abeb893852785eec37893fe2bcf3508579e7ab62e83e3559e9a4a25644",
    ("jammer", "json"): "cfa0cd8cc2a30b666d0e08dfdd5fc8bef4f98fa4e7a3013ff13d4db8413ec705",
    ("jammer", "svg"): None,
    ("power", "csv"): "de31c327e6ba341d96bfabd258a965ee12df1866c7783f6fc123742975181d3c",
    ("power", "json"): "172c8b831fa6858664b3fd2b166b03d8944beb9a81af4ff10b335b588d109809",
    ("power", "svg"): None,
}


@pytest.mark.parametrize(("command", "fmt"), list(PINNED_REPORTS))
def test_report_bytes_are_pinned(command, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = tmp_path / "pin.json"
    cfg.write_text(json.dumps(PIN_SCENARIO), encoding="utf-8")
    out = tmp_path / f"report.{fmt}"
    code = main([
        command, "--config", str(cfg), "--format", fmt, "--out", str(out),
        "--quiet", *PIN_FLAGS.get(command, []),
    ])
    digest = PINNED_REPORTS[(command, fmt)]
    if digest is None:
        assert code == 1
        assert "svg output supports series and matrix results" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["orbit-now"]) == 1
        capsys.readouterr()

    def test_bad_format_flag(self, capsys):
        assert main(["pathloss", "--format", "yaml"]) == 1
        capsys.readouterr()

    def test_bad_threads_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["dop-sweep", "--config", cfg, "--threads", "0", "--quiet"]) == 1
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "baseline"])
    def test_threads_flag_checked_by_every_report(self, command, capsys):
        assert main([command, "--threads", "0", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "argument --threads: 0 must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--altitude-km", "--target-pdop"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_optimize_rejects_non_finite_numbers(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        args = {"--altitude-km": "900", "--target-pdop": "3", flag: value}
        argv = ["optimize", "--config", cfg, "--quiet"]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert {
            "--altitude-km": f"--altitude-km ({value}) must be in [1, 1e+06]",
            "--target-pdop": f"target_pdop ({value}) must be finite and strictly positive",
        }[flag] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0.5", "1e300", "many"])
    def test_optimize_altitude_shares_the_altitude_bound(self, capsys, value):
        """The flag is held to walker.altitude_km's bound and named itself."""
        assert main(["optimize", "--altitude-km", value, "--target-pdop", "3"]) == 1
        captured = capsys.readouterr()
        assert "--altitude-km" in captured.err
        assert "walker.altitude_km" not in captured.err
        assert captured.out == ""

    def test_huge_size_exits_at_once_and_names_the_key(self, tmp_path, capsys):
        """A size of 10^29 is refused while parsing, before the Walker
        design rule would try to factor it."""
        cfg = write_config(tmp_path, {"walker": {"total_sats": 10**29}})
        start = time.perf_counter()
        assert main(["dop-map", "--config", cfg, "--quiet"]) == 1
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert "walker.total_sats: must be >= 1 and <= 100000" in captured.err
        assert captured.out == ""

    def test_huge_grid_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": {"resolution": 1e308}})
        assert main(["dop-map", "--config", cfg, "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "grid.resolution: must be >= 1 and <= 1000000" in captured.err
        assert captured.out == ""

    def test_ceiling_shares_the_size_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["optimize", "--config", cfg, "--target-pdop", "3", "--ceiling", "100001"]
        assert main([*argv, "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "ceiling (100001) must be >= 1 and <= 100000" in captured.err
        assert captured.out == ""

    def test_pinned_planes_above_the_ceiling_name_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"walker": {"planes": 12, "total_sats": 24}})
        argv = ["optimize", "--config", cfg, "--target-pdop", "3", "--ceiling", "10"]
        assert main([*argv, "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "leonav: error: no valid Walker size at or below ceiling (10): "
            "walker.planes (12) exceeds it\n"
        )
        assert captured.out == ""

    def test_missing_config_file(self, capsys):
        assert main(["pathloss", "--config", "/does/not/exist.json"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["pathloss", "--config", str(path)]) == 1
        assert "syntax error" in capsys.readouterr().err

    def test_config_nested_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"walker": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
        assert main(["pathloss", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("leonav: error: scenario syntax error: maximum recursion depth")
        assert "Traceback" not in err

    def test_config_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text('{"walker": {"total_sats": ' + "1" * 5000 + "}}", encoding="utf-8")
        assert main(["pathloss", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "leonav: error: scenario syntax error: Exceeds the limit (4300 digits)"
        )

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"walker": {}} \xff')
        assert main(["pathloss", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"cannot read config {str(path)!r}: 'utf-8' codec can't decode byte 0xff" in err

    def test_unknown_config_key_strict(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"walked": {}}', encoding="utf-8")
        assert main(["pathloss", "--config", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_config_key_lenient(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"walked": {}}', encoding="utf-8")
        assert main(["pathloss", "--config", str(path), "--lenient", "--quiet"]) == 0
        assert "ignoring unknown key" in capsys.readouterr().err

    def test_lenient_reaches_list_entries(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"payload": {"clocks": [{"name": "x", "unit_power_w": 1, "foo": 1}]}}',
            encoding="utf-8",
        )
        assert main(["power", "--config", str(path), "--quiet"]) == 1
        assert "unknown key payload.clocks[0].'foo'" in capsys.readouterr().err
        argv = ["power", "--config", str(path), "--lenient", "--quiet", "--format", "csv"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "warning: ignoring unknown key payload.clocks[0].'foo'" in captured.err
        assert "\nclock_budget_w,1.0,1.0," in captured.out

    def test_no_coverage_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"walker": {"total_sats": 1, "phasing": 0}})
        assert main(["dop-map", "--config", cfg, "--quiet"]) == 2
        assert "computation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, scenario, message", [
        ("footprint", {"earth": {"radius_km": 1e-300}}, "earth.radius_km: must be in [1, 1e+06]"),
        ("footprint", {"earth": {"radius_km": 1e300}}, "earth.radius_km: must be in [1, 1e+06]"),
        ("power", {"earth": {"radius_km": 1e29}}, "earth.radius_km: must be in [1, 1e+06]"),
        ("baseline", {"earth": {"radius_km": 1e308}}, "earth.radius_km: must be in [1, 1e+06]"),
        ("jammer", {"jammer": {"ref_radius_m": 1e-300}},
         "jammer.ref_radius_m: must be in [0.001, 1e+07]"),
        ("jammer", {"jammer": {"margins_db": [4000]}}, "jammer.margins_db[0]: must be in [0, 200]"),
        ("jammer", {"materials": {"wood_db": 1e-310}},
         "materials.wood_db: must be in [0.001, 1000]"),
        ("pathloss", {"link": {"pathloss_altitudes_km": [1e-300]}},
         "link.pathloss_altitudes_km[0]: must be in [1, 1e+06]"),
        ("pathloss", {"link": {"pathloss_altitudes_km": [500.0, 1e308]}},
         "link.pathloss_altitudes_km[1]: must be in [1, 1e+06]"),
        ("footprint", {"link": {"footprint_altitudes_km": [1e-300]}},
         "link.footprint_altitudes_km[0]: must be in [1, 1e+06]"),
        ("power", {"payload": {"overhead_high": 1e308}},
         "payload.overhead_high: must be in [0, 10]"),
        ("power", {"payload": {"leo_signals": 1e300}}, "payload.leo_signals: must be >= 1"),
        ("power", {"payload": {"leo_signals": 10**400}}, "payload.leo_signals: must be >= 1"),
        ("power", {"payload": {"n_signals": 10**400}}, "payload.n_signals: must be >= 1"),
        ("power", {"payload": {"clocks": [{"name": "x", "unit_power_w": 1e308, "count": 10}]}},
         "payload.clocks[0].unit_power_w: must be in [1e-06, 1e+06]"),
        ("power", {"payload": {"rf_output_w_high": 1e308, "pa_efficiency": 0.01}},
         "payload.rf_output_w_high: must be in [1e-06, 1e+06]"),
        ("power", {"payload": {"rf_output_w_low": 1e308, "rf_output_w_high": 1e308,
                               "pa_efficiency": 0.01}},
         "payload.rf_output_w_low: must be in [1e-06, 1e+06]"),
        ("footprint", {"link": {"footprint_masks_deg": [89.9999999]}},
         "link.footprint_masks_deg[0]: must be in [0, 89]"),
        ("pathloss", {"link": {"frequency_hz": 1e308}}, "link.frequency_hz: must be in"),
        ("dop-map", {"walker": {"altitude_km": 1e300}}, "walker.altitude_km: must be in [1, 1e+06]"),
        ("dop-sweep", {"sweep": {"altitudes_km": [900.0, 1e300]}},
         "sweep.altitudes_km[1]: must be in [1, 1e+06]"),
        ("baseline", {"window": {"duration_s": 1e308}}, "window.duration_s: must be in [1, 1e+06]"),
        ("baseline", {"window": {"step_s": 1e-300}}, "window: duration_s / step_s"),
        ("baseline", {"window": {"duration_s": 1e6, "step_s": 1e-6}},
         "window: duration_s / step_s (1e+12 epochs) must be <= 1000000"),
        ("baseline", {"earth": {"mu_km3_s2": 1e30}}, "earth.mu_km3_s2: must be in [1, 1e+07]"),
        ("baseline", {"earth": {"rotation_rate_rad_s": 1e308}},
         "earth.rotation_rate_rad_s: must be in (0, 1]"),
    ])
    def test_overflowing_value_names_the_key(self, tmp_path, capsys, command, scenario, message):
        """Values that once overflowed or divided by zero inside a report;
        the message quotes a huge value clipped, never all its digits."""
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main([command, "--config", str(path), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert len(captured.err) < 160
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["power", "footprint"])
    @pytest.mark.parametrize("meo", [90.0, 1400.0])
    def test_meo_altitude_below_the_footprints_names_both_keys(
        self, tmp_path, capsys, command, meo
    ):
        cfg = write_config(tmp_path, {"link": {"meo_altitude_km": meo}})
        assert main([command, "--config", cfg, "--quiet"]) == 1
        captured = capsys.readouterr()
        assert (f"link: meo_altitude_km ({meo}) must exceed every "
                "footprint_altitudes_km entry (up to 1400.0)") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("radius", [1.0, 1e6])
    @pytest.mark.parametrize("elevation", [0.0, 90.0])
    def test_pathloss_altitude_bounds_give_finite_reports(
        self, tmp_path, capsys, radius, elevation
    ):
        cfg = write_config(tmp_path, {
            "earth": {"radius_km": radius},
            "link": {"elevation_deg": elevation, "pathloss_altitudes_km": [1.0, 1e6]},
        })
        assert main(["pathloss", "--config", cfg, "--format", "json", "--quiet"]) == 0
        rows = finite_json(capsys.readouterr().out)["rows"]
        assert all(r[1] > 0.0 and r[2] > 0.0 for r in rows)  # slant range and path loss

    @pytest.mark.parametrize("loss", [1e-3, 1e3])
    def test_material_loss_bounds_give_finite_counts(self, tmp_path, capsys, loss):
        cfg = write_config(tmp_path, {
            "materials": {"wood_db": loss}, "jammer": {"margins_db": [0.0, 200.0]},
        })
        assert main(["jammer", "--config", cfg, "--format", "json", "--quiet"]) == 0
        finite_json(capsys.readouterr().out)

    def test_link_and_overhead_bounds_give_finite_power(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "link": {"meo_altitude_km": 1e6, "footprint_altitudes_km": [1.0, 999999.0]},
            "payload": {"overhead_low": 10.0, "overhead_high": 10.0},
        })
        for command in ("power", "footprint"):
            assert main([command, "--config", cfg, "--format", "json", "--quiet"]) == 0
            finite_json(capsys.readouterr().out)

    @pytest.mark.parametrize("radius", [1.0, 1e6])
    @pytest.mark.parametrize("command", ["footprint", "power", "pathloss"])
    def test_earth_radius_bounds_give_finite_reports(self, tmp_path, capsys, command, radius):
        cfg = write_config(tmp_path, {"earth": {"radius_km": radius}})
        assert main([command, "--config", cfg, "--format", "json", "--quiet"]) == 0
        finite_json(capsys.readouterr().out)

    @pytest.mark.parametrize("radius, code", [(1.0, 0), (1e6, 2)])
    def test_earth_radius_bounds_in_the_baseline(self, tmp_path, capsys, radius, code):
        """A 1e6 km Earth swallows the GPS-like orbits: no coverage, not a crash."""
        cfg = write_config(tmp_path, {"earth": {"radius_km": radius}})
        assert main(["baseline", "--config", cfg, "--quiet"]) == code
        capsys.readouterr()

    def test_non_finite_altitude_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"walker": {"altitude_km": NaN}}', encoding="utf-8")
        assert main(["dop-map", "--config", str(path), "--quiet"]) == 1
        assert "walker.altitude_km: must be finite" in capsys.readouterr().err

    def test_infinite_pathloss_altitude_names_the_entry(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"link": {"pathloss_altitudes_km": [Infinity]}}', encoding="utf-8")
        assert main(["pathloss", "--config", str(path), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "link.pathloss_altitudes_km[0]: must be finite" in captured.err
        assert captured.out == ""

    def test_footprint_masks_that_name_one_column(self, tmp_path, capsys):
        path = tmp_path / "masks.json"
        path.write_text('{"link": {"footprint_masks_deg": [5.0, 5.0000001]}}', encoding="utf-8")
        assert main(["footprint", "--config", str(path), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "link.footprint_masks_deg" in captured.err
        assert captured.out == ""

    def test_source_date_epoch_must_be_integer(self, monkeypatch, capsys):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert main(["pathloss", "--quiet"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        assert main(["pathloss", "--format", "json", "--quiet"]) == 1
        assert "SOURCE_DATE_EPOCH ('abc') must be an integer" in capsys.readouterr().err
        # CSV carries no timestamp, so the variable is never read.
        assert main(["pathloss", "--quiet"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("pin", ["99999999999999999999", "-99999999999", "253402300800"])
    def test_source_date_epoch_out_of_range(self, monkeypatch, capsys, pin):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", pin)
        assert main(["pathloss", "--format", "json", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert f"SOURCE_DATE_EPOCH ('{pin}') is out of range" in captured.err
        assert captured.out == ""
        assert main(["pathloss", "--quiet"]) == 0

    def test_unwritable_output_path(self, tmp_path, capsys):
        assert main(["pathloss", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1
        capsys.readouterr()

    def test_table_svg_combination(self, capsys):
        assert main(["power", "--format", "svg", "--quiet"]) == 1
        assert "svg output supports" in capsys.readouterr().err


class TestUserExperience:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "leonav 0.1.0"

    def test_readme_lists_every_subcommand_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        table = re.search(r"\| Subcommand .*?\n\n", readme, re.DOTALL).group(0)
        assert re.findall(r"^\| `([a-z-]+)`", table, re.MULTILINE) == list(_REPORTS)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in (
            "dop-map", "dop-sweep", "optimize", "baseline",
            "pathloss", "footprint", "jammer", "power",
        ):
            assert name in out

    def test_quiet_silences_progress(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "map.csv"
        assert main(["dop-map", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_progress_notes_written_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "map.csv"
        assert main(["dop-map", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "dop-map:" in err
        assert f"wrote {out}" in err

    def test_scenario_hash_consistent_across_formats(self, tmp_path):
        cfg = write_config(tmp_path)
        j = tmp_path / "a.json"
        assert main(["baseline", "--config", cfg, "--format", "json",
                     "--out", str(j), "--quiet"]) == 0
        doc = json.loads(j.read_text(encoding="utf-8"))
        assert len(doc["scenario_hash"]) == 64


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports leonav from this checkout."""
    src = str(Path(leonav.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("module", [
    "schema", "orbits", "geometry", "rflink", "payload", "scenario", "tradestudy", "output", "cli",
])
def test_submodule_imports_alone(module):
    """The package root imports nothing, so each submodule must load its own
    dependencies; an import cycle would show only for some import orders."""
    done = _python("-c", f"import leonav.{module}")
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("module", ["rflink", "payload", "schema"])
def test_scalar_modules_leave_numpy_unloaded(module):
    """The link, payload and schema models are scalar Python; importing one
    must not load numpy."""
    done = _python("-c", f"import sys, leonav.{module}; sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr.decode() or "numpy was imported"


class TestModuleEntryPoint:
    """``python -m leonav.cli`` runs the same command line as ``leonav``."""

    @staticmethod
    def _run(*argv: str) -> subprocess.CompletedProcess:
        return _python("-m", "leonav.cli", *argv)

    def test_runs_a_report(self):
        done = self._run("pathloss", "--quiet")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(b"altitude_km,slant_range_km,fspl_db\r\n")
        assert done.stderr == b""

    def test_bare_invocation_exits_1(self):
        done = self._run()
        assert done.returncode == 1
        assert b"usage: leonav" in done.stderr
