"""CLI tables: content, schema, determinism, and error paths."""
import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from asymwell.report import (
    RunConfig,
    cmd_compare,
    cmd_momentum,
    cmd_smoothing,
    cmd_spectrum,
    cmd_wavefunction,
    main,
    render_csv,
    render_json,
)


def cfg(**kwargs):
    return RunConfig(**{"e_max": 35.0, **kwargs})


class TestSpectrumTable:
    def test_default_has_nine_rows(self):
        table = cmd_spectrum(cfg())
        assert len(table.rows) == 9
        assert table.columns == ["n", "energy", "k", "q_or_qbar", "branch"]

    def test_e100_has_eighteen_rows(self):
        assert len(cmd_spectrum(cfg(e_max=100.0)).rows) == 18

    def test_flat_well_energies(self):
        table = cmd_spectrum(cfg(v0=0.0, e_max=1.2))
        for row in table.rows:
            n = row[0]
            assert row[1] == pytest.approx((n * math.pi / 6.0) ** 2, rel=1e-10)

    def test_n_max_selection(self):
        table = cmd_spectrum(RunConfig(n_max=5))
        assert [r[0] for r in table.rows] == [1, 2, 3, 4, 5]

    def test_smoothed_rejected(self):
        with pytest.raises(ValueError):
            cmd_spectrum(cfg(smoothing="exponential"))


class TestWavefunctionTable:
    def test_endpoints_and_norm(self):
        table = cmd_wavefunction(cfg(), n=6)
        xs = np.array([r[0] for r in table.rows])
        dens = np.array([r[2] for r in table.rows])
        psi = np.array([r[1] for r in table.rows])
        assert psi[0] == 0.0 and psi[-1] == 0.0
        assert simpson(dens, x=xs) == pytest.approx(1.0, abs=2e-6)

    def test_antinode_state_equal_side_amplitudes(self):
        table = cmd_wavefunction(cfg(), n=6)
        xs = np.array([r[0] for r in table.rows])
        psi = np.abs(np.array([r[1] for r in table.rows]))
        ratio = psi[xs < 0].max() / psi[xs > 0].max()
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_overlay_columns(self):
        table = cmd_wavefunction(cfg(samples=601), n=5)
        xs = np.array([r[0] for r in table.rows])
        pot = np.array([r[3] for r in table.rows])
        cls = np.array([r[4] for r in table.rows])
        assert pot[xs < 0].max() == 0.0 and pot[xs > 0].min() == 20.0
        assert np.unique(cls[xs < 0]).size == 1  # constant classical density per side
        assert cls[xs < 0][0] < cls[xs > 0][0]   # particle is slower on the right

    def test_smoothed_state(self):
        table = cmd_wavefunction(cfg(smoothing="exponential", delta=0.2, e_max=25.0), n=6)
        xs = np.array([r[0] for r in table.rows])
        dens = np.array([r[2] for r in table.rows])
        assert simpson(dens, x=xs) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="not found"):
            cmd_wavefunction(cfg(), n=10)


class TestCompareTable:
    def test_rows(self):
        table = cmd_compare(cfg(e_max=100.0))
        assert len(table.rows) == 18
        by_n = {r[0]: r for r in table.rows}
        # below-threshold rows: classical probability 1, no bounds, no class
        for n in (1, 2, 3, 4):
            assert by_n[n][3] == 1.0
            assert by_n[n][4] is None and by_n[n][5] is None and by_n[n][6] is None
        for n in range(5, 19):
            lower, upper = by_n[n][4], by_n[n][5]
            assert lower is not None and upper == pytest.approx(0.5)
            assert lower <= by_n[n][3] <= upper  # classical stays enveloped
        assert by_n[6][6] == "near_antinode"
        assert by_n[7][6] == "generic"
        assert by_n[8][6] == "near_node"

    def test_flat_floor_leaves_match_class_empty(self):
        # v0 = 0 collapses the envelopes onto a/(a+b); no saturation to flag
        table = cmd_compare(cfg(v0=0.0, e_max=1.2))
        for row in table.rows:
            assert row[4] == row[5] == 0.5
            assert row[6] is None

    def test_asymmetric_geometry_end_to_end(self, tmp_path):
        # a != b exercises every command without relying on midpoint symmetry
        base = ["--a", "2", "--b", "4", "--v0", "10", "--e-max", "18"]
        for args in (["spectrum"], ["compare"], ["smoothing"],
                     ["wavefunction", "--n", "3"], ["momentum", "--n", "4"]):
            out = tmp_path / (args[0] + ".csv")
            assert main(args + base + ["--out", str(out)]) == 0
            assert out.stat().st_size > 0


class TestSmoothingTable:
    def test_default_table(self):
        table = cmd_smoothing(cfg())
        assert len(table.rows) == 9
        by_n = {r[0]: r for r in table.rows}
        # frozen study: above-threshold shifts stay below 3%
        for n in range(5, 10):
            assert abs(by_n[n][3]) <= 0.03
        # the anomalous state is pulled toward the classical value...
        assert abs(by_n[6][5] - by_n[6][6]) < abs(by_n[6][4] - by_n[6][6])
        # ...while the near-threshold n = 5 moves away (the known exception)
        assert abs(by_n[5][5] - by_n[5][6]) > abs(by_n[5][4] - by_n[5][6])

    def test_below_threshold_shifts_are_large(self):
        # the sigmoid raises the left floor, so small-E states shift by >> 3%
        table = cmd_smoothing(cfg())
        assert table.rows[0][3] > 0.2

    def test_delta_override(self):
        table = cmd_smoothing(cfg(delta=0.1))
        assert ("scale", 0.1) in table.config_items

    def test_linear_family(self):
        table = cmd_smoothing(cfg(smoothing="linear", epsilon=0.4, e_max=25.0))
        by_n = {r[0]: r for r in table.rows}
        assert by_n[6][2] == pytest.approx(22.0975843849, rel=1e-6)

    def test_vanishing_scale_reproduces_sharp_step(self):
        # delta far below the grid resolution: every shift collapses to the
        # cross-solver discretization level, orders below 1e-3
        table = cmd_smoothing(cfg(e_max=16.0, delta=1e-4))
        assert all(abs(r[3]) < 1e-3 for r in table.rows)


class TestMomentumTable:
    def test_series_even_and_normalized(self):
        table = cmd_momentum(cfg(), n=5)
        ps = np.array([r[0] for r in table.rows])
        dens = np.array([r[1] for r in table.rows])
        assert np.max(np.abs(dens - dens[::-1])) < 1e-10
        assert simpson(dens, x=ps) == pytest.approx(1.0, abs=1e-4)
        assert table.markers["k"] == pytest.approx(math.sqrt(20.835686317145), rel=1e-9)
        assert table.markers["q"] == pytest.approx(math.sqrt(0.835686317145), rel=1e-8)

    def test_below_threshold_has_no_q_marker(self):
        table = cmd_momentum(cfg(p_max=10.0, points=801), n=1)
        assert "q" not in table.markers


class TestEmission:
    def test_csv_round_shape(self):
        text = render_csv(cmd_spectrum(cfg()))
        lines = text.splitlines()
        assert lines[0] == "# asymwell spectrum"
        assert "# a = 3" in lines
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "n,energy,k,q_or_qbar,branch"
        assert len(lines) == header_idx + 1 + 9

    def test_twelve_significant_digits(self):
        text = render_csv(cmd_spectrum(cfg()))
        assert "0.948700140577" in text

    def test_json_schema(self):
        doc = json.loads(render_json(cmd_momentum(cfg(p_max=8.0, points=41), n=6)))
        assert set(doc) == {"command", "config", "columns", "rows", "markers"}
        assert doc["columns"] == ["p", "density"]
        assert doc["config"]["a"] == 3
        assert len(doc["rows"]) == 41

    def test_render_deterministic(self):
        a = render_json(cmd_compare(cfg()))
        b = render_json(cmd_compare(cfg()))
        assert a == b


class TestCli:
    def test_spectrum_to_file(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 12 + 9

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["momentum", "--n", "6", "--format", "json", "--p-max", "20"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_names_stage(self, tmp_path, capsys):
        code = main(["momentum", "--n", "99", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "momentum: solve:" in err

    def test_conflicting_cutoffs_rejected(self):
        with pytest.raises(SystemExit):
            main(["spectrum", "--e-max", "35", "--n-max", "9"])

    def test_wavefunction_cli(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wavefunction", "--n", "2", "--samples", "201",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[13] == "x,psi,density,potential,classical_density"
