"""CLI tables: content, schema, determinism, and error paths."""
import json
import math
import re

import mpmath as mp
import numpy as np
import oracles
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st
from scipy.integrate import simpson

from asymwell import (Exponential, Linear, ScanResolutionError, WellSpec, classical,
                      find_spectrum, potential, report, shooting, side_probabilities, spectrum)
from asymwell._rootscan import bracket_and_bisect, scan_step
from asymwell.report import (
    RunConfig,
    Table,
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

    @pytest.mark.parametrize("v0, blank", [(0.0, "all"), (1e-13, "all"), (1e-9, "none"),
                                           (20.0, "some")])
    def test_match_class_blank_exactly_where_classify_matching_raises(self, v0, blank):
        # an envelope narrower than 1e-12 has nothing to saturate; the table
        # and classify_matching decide that by one rule
        rows = cmd_compare(cfg(v0=v0)).rows
        states = find_spectrum(WellSpec(3.0, 3.0, v0), 35.0)
        for st, row in zip(states, rows, strict=True):
            if row[6] is None:
                message = "evanescent" if st.below_threshold else "degenerate bound interval"
                with pytest.raises(ValueError, match=message):
                    spectrum.classify_matching(st)
            else:
                assert spectrum.classify_matching(st).kind.value == row[6]
        blanks = sum(row[6] is None for row in rows)
        assert {"all": blanks == len(rows), "none": blanks == 0,
                "some": 0 < blanks < len(rows)}[blank]

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

    def test_nan_density_fails_the_evenness_check(self, monkeypatch):
        from asymwell import momentum

        monkeypatch.setattr(momentum, "phi", lambda state, p: np.full(p.shape, np.nan))
        with pytest.raises(RuntimeError, match="momentum density is not even in p"):
            cmd_momentum(cfg(), n=1)


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


# floats where the .12g token and repr of the rounded float part ways, or round
# to a new decade: exponents +12 to +15, 1e16 and up, below 1e-4, integral values
EDGE_FLOATS = st.one_of(
    st.floats(1e12, 1e16, exclude_max=True), st.floats(-1e16, -1e12, exclude_min=True),
    st.floats(1e16, 1e300), st.floats(-1e-4, 1e-4, allow_subnormal=True),
    st.integers(-10**16, 10**16).map(float),
    st.integers(-3, 17).map(lambda e: 10.0**e - 10.0**(e - 12) / 2),
    st.sampled_from([999999999999.5, 9999999999999.5, 99999999999999.5, 1e12, 1e16,
                     9.99999999999951e15, 9.9999999999995e-5, -0.0, 0.0, math.nan,
                     math.inf, -math.inf, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
CELLS = st.one_of(EDGE_FLOATS, st.none(), st.integers(), st.booleans(), st.text(max_size=6))
KEYS = st.text(max_size=6)


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6))
    if draw(st.booleans()):
        rows.append([])  # a row with no cells
    return Table(draw(KEYS), draw(st.lists(st.tuples(KEYS, CELLS), max_size=6)),
                 draw(st.lists(KEYS, min_size=width, max_size=width)), rows,
                 markers=draw(st.dictionaries(KEYS, EDGE_FLOATS, max_size=3)))


class TestRendererParity:
    """The renderers format each number once and write the bytes of the
    reference renderers in ``oracles``, which round-trip every float."""

    @given(tables())
    @settings(max_examples=400)
    def test_csv_matches_reference(self, table):
        assert render_csv(table) == oracles.render_csv(table)

    @given(tables())
    @settings(max_examples=400)
    def test_json_matches_reference(self, table):
        assert render_json(table) == oracles.render_json(table)

    @given(st.lists(EDGE_FLOATS, min_size=1, max_size=50))
    @settings(max_examples=300)
    def test_float_cells_match_reference(self, values):
        table = Table("floats", [("x", values[0])], ["v"], [[v] for v in values],
                      markers={"k": values[-1]})
        assert render_csv(table) == oracles.render_csv(table)
        assert render_json(table) == oracles.render_json(table)

    @pytest.mark.parametrize("rows", [[], [[1.5, None, "x"]]])
    @pytest.mark.parametrize("markers", [{}, {"q": 2.0, "k": 1e12}])
    def test_empty_rows_and_markers(self, rows, markers):
        table = Table("t", [("a", 3.0), ("grid", 4000), ("smoothing", "none"),
                            ("e_max", None)], ["p", "n", "s"], rows, markers=markers)
        assert render_csv(table) == oracles.render_csv(table)
        assert render_json(table) == oracles.render_json(table)

    def test_tables_longer_than_a_chunk_match_reference(self):
        # four chunks: floats with an np.float64 cell, a None, int and str row, floats
        # again, and floats with a short row; the first column cycles through the tokens
        # the JSON renderer repairs (integral, e+, three-digit e-, nan, inf) or keeps
        size = report._CHUNK_ROWS
        tokens = [0.0, -0.0, 1e12, 1e-05, 1e-100, math.nan, math.inf, -math.inf, 12.5,
                  1.23456789012345e15, -2.9999999999999, 5e-324]
        rows = [[tokens[i % len(tokens)], i * 0.5, math.sin(i) / 3.0] for i in range(3 * size + 7)]
        rows[5][1] = np.float64(2.5)
        rows[size + 3] = [None, 7, "x"]
        rows[3 * size + 1] = [1.5, 2.5]
        table = Table("long", [("a", 3.0)], ["u", "v", "w"], rows, markers={"k": 1e12})
        assert [floats for *_, floats in report._chunks(rows)] == [True, False, True, True]
        assert render_csv(table) == oracles.render_csv(table)
        assert render_json(table) == oracles.render_json(table)

    def test_standard_tables_match_reference(self):
        # momentum n=1 lies below the step and has no q marker
        for table in (cmd_momentum(cfg(), n=1), cmd_momentum(cfg(), n=5),
                      cmd_wavefunction(cfg(), n=6), cmd_compare(cfg(e_max=100.0)),
                      cmd_smoothing(cfg())):
            assert render_csv(table) == oracles.render_csv(table)
            assert render_json(table) == oracles.render_json(table)


# the stated bound of the closed-form states: each side of a state, and each
# side probability, lies within 4 eps (1 + k a + w b) of the 40-digit state at
# the same float energy.  The phase k a + w b carries the rounding of k, w and
# their products into every sine, cosine, sinh and cosh; the largest error
# seen, over 44,858 states of the step-survey, random and scaled wells, was
# 0.48 of that scale
_STATE_BOUND = 4.0 * np.finfo(float).eps


def _state_within_bound(state, p_left: float, p_right: float) -> bool:
    """Whether ``state`` and its side probabilities lie within the bound of the
    40-digit state on a ray the float solve may take: the better-conditioned
    ray, or either ray where their norms tie within the bound, as they do
    below a tall step.  There a ray flip moves amp_right by up to 5.3e-12
    relative, the matching residual at the float energy, and each ray is
    still within the bound of its own 40-digit state.  The error of a side is
    its amplitude's times the norm of its basis function, so the bound holds
    where amp_right is tiny, below a tall step."""
    spec = state.spec
    tol = _STATE_BOUND * (1.0 + state.k * spec.a + state.q_or_qbar * spec.b)
    rays, root_il, root_ir, tie = oracles.reference_state(spec, state.energy)
    return min(max(abs(state.amp_left - A) * root_il, abs(state.amp_right - B) * root_ir,
                   abs(p_left - PL), abs(p_right - PR))
               for A, B, PL, PR in rays[:1 if tie > tol else 2]) <= tol


def _assert_states_within_bound(a: float, b: float, v0: float, e_max: float):
    """The states, side probabilities, spectrum rows and compare rows of the
    array passes: the energies, k, q_or_qbar and branch bit for bit (repr tells
    every bit of a float, -0.0 from 0.0, and a numpy scalar from a float),
    against the plain root policy on the per-state characteristic, and the
    amplitudes and side probabilities within the stated bound of the
    40-digit state."""
    spec = WellSpec(a, b, v0)
    states = find_spectrum(spec, e_max)
    roots = bracket_and_bisect(lambda es: oracles.reference_characteristic(spec, es),
                               lambda es: spectrum._count_below(spec, es),
                               e_max, scan_step(a, b), spectrum._BISECT_TOL)
    assert repr([(s.n, s.energy, s.k, s.q_or_qbar, s.below_threshold) for s in states]) == repr(
        [(n, e, math.sqrt(e), math.sqrt(abs(e - v0)), e < v0) for n, e in enumerate(roots, 1)])
    sides = [side_probabilities(s) for s in states]
    assert all(_state_within_bound(s, *p) for s, p in zip(states, sides))
    config = RunConfig(a=a, b=b, v0=v0, e_max=e_max)
    assert (repr(cmd_spectrum(config).rows)
            == repr([[s.n, s.energy, s.k, s.q_or_qbar, s.branch] for s in states]))
    rows = cmd_compare(config).rows
    reference = oracles.reference_compare_rows(spec, states)
    assert repr([r[:2] + r[3:] for r in rows]) == repr([r[:2] + r[3:] for r in reference])
    assert [r[2] for r in rows] == [p_left for p_left, _ in sides]
    return states, rows


def _near_step(below: bool):
    return lambda states, rows: any(abs(s.energy / s.spec.v0 - 1.0) < 1e-9
                                    and s.below_threshold == below for s in states)


class TestArrayParity:
    """The closed form solved over all roots at once: the energies of the
    per-state characteristic bit for bit, and each state within a stated
    bound of the 40-digit state at its energy."""

    @pytest.mark.parametrize("well, covers", [
        pytest.param((3.0, 3.0, 20.0, 100.0), lambda states, rows: states[3].below_threshold
                     and not states[4].below_threshold, id="below and above the step"),
        pytest.param((3.0, 3.0, 0.0, 50.0), lambda states, rows: all(r[6] is None for r in rows),
                     id="flat floor"),
        # tan(k a) = -k b puts a level at v0 = k**2 = 7.07323406116; the step
        # sits 3e-10 (relative) above or below it
        pytest.param((3.0, 3.0, 7.0732340632818245, 12.0), _near_step(True),
                     id="level just below the step"),
        pytest.param((3.0, 3.0, 7.073234059037884, 12.0), _near_step(False),
                     id="level just above the step"),
        pytest.param((1e-4, 1.0, 0.0, 100.0), lambda states, rows: 2.0 * states[0].k * 1e-4 < 1e-3,
                     id="series of u - sin u"),
        pytest.param((1.0, 1e-4, 10.0, 12.0), lambda states, rows: states[0].below_threshold
                     and 2.0 * states[0].q_or_qbar * 1e-4 < 1e-3, id="series of sinh u - u"),
        pytest.param((3.0, 5.0, 4624.0, 100.0), lambda states, rows: states[0].below_threshold
                     and states[0].q_or_qbar * 5.0 >= 300.0, id="qbar b near the guard"),
        pytest.param((0.01, 5.0, 20.0, 100.0), lambda states, rows: len(states) > 5,
                     id="a over b is 0.01 over 5"),
        pytest.param((1.0, 1.0, 100.0, 1e4), lambda states, rows:
                     {"near_node", "near_antinode"} <= {r[6] for r in rows},
                     id="both match classes"),
    ])
    def test_wells_of_every_branch(self, well, covers):
        assert covers(*_assert_states_within_bound(*well))

    # no shrink phase: a failing example reports as drawn, in seconds
    @given(a=st.floats(0.01, 5.0), b=st.floats(0.01, 5.0), v0=st.floats(0.0, 1e4),
           e_max=st.floats(1.0, 2000.0))
    @settings(max_examples=60, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_random_wells(self, a, b, v0, e_max):
        assume(math.sqrt(v0) * b <= 350.0)
        try:
            _assert_states_within_bound(a, b, v0, e_max)
        except ScanResolutionError:
            assume(False)  # no root policy reaches the state solve

    def test_side_probabilities(self):
        # random fields, on either branch: each probability within the bound,
        # relative, of the 40-digit square times the 40-digit side integral
        rng = np.random.default_rng(12)
        spec = WellSpec(2.0, 3.0, 20.0)
        fields = zip(rng.uniform(1e-3, 1e3, 4000).tolist(), rng.uniform(1e-3, 50.0, 4000).tolist(),
                     (rng.random(4000) < 0.5).tolist(),
                     *rng.uniform(-2.0, 2.0, (2, 4000)).tolist())
        for n, (k, w, below, amp_left, amp_right) in enumerate(fields, 1):
            state = spectrum.EigenState(n, 1.0, k, w, below, amp_left, amp_right, spec)
            tol = _STATE_BOUND * (1.0 + k * spec.a + w * spec.b)
            with mp.workdps(40):
                u_l, u_r = 2 * mp.mpf(k) * spec.a, 2 * mp.mpf(w) * spec.b
                il = (u_l - mp.sin(u_l)) / (4 * mp.mpf(k))
                ir = ((mp.sinh(u_r) - u_r) if below else (u_r - mp.sin(u_r))) / (4 * mp.mpf(w))
                expected = (mp.mpf(amp_left) ** 2 * il, mp.mpf(amp_right) ** 2 * ir)
            for p, q in zip(side_probabilities(state), expected):
                assert abs(p - q) <= tol * q

    @given(v0=st.floats(0.0, 1e3), energies=st.lists(
        st.one_of(st.floats(1e-6, 2e3), st.just("v0")), max_size=12))
    @settings(max_examples=300)
    def test_characteristic(self, v0, energies):
        # one side of v0, both sides, E = v0 exactly, and no energies at all
        spec = WellSpec(2.0, 3.0, v0)
        es = np.array([v0 if e == "v0" else e for e in energies], dtype=float)
        assert (spectrum._characteristic_many(spec, es).tobytes()
                == oracles.reference_characteristic(spec, es).tobytes())


@pytest.mark.parametrize("command", [cmd_spectrum, cmd_compare, cmd_smoothing])
@pytest.mark.parametrize("cutoff, n_rows", [({"e_max": 100.0}, 18), ({"n_max": 12}, 12)],
                         ids=["e_max", "n_max"])
def test_closed_form_tables_build_no_states(command, cutoff, n_rows, monkeypatch):
    # the tables read the solved arrays; EigenStates are built only where an API returns
    # them, and for the one state the wavefunction and momentum tables show
    built = []
    init = spectrum.EigenState.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spectrum.EigenState, "__init__", counted)
    assert len(command(RunConfig(**cutoff)).rows) == n_rows
    assert built == []


@pytest.mark.parametrize("command, state", [
    (cmd_spectrum, {}), (cmd_compare, {}), (cmd_smoothing, {}),
    (cmd_wavefunction, {"n": 6}), (cmd_momentum, {"n": 5}),
], ids=["spectrum", "compare", "smoothing", "wavefunction", "momentum"])
def test_tables_reach_the_closed_form_through_the_arrays(command, state, monkeypatch):
    # one route from the root solve to every table: none of them enters find_spectrum
    def refused(*args):
        raise AssertionError("find_spectrum called")

    monkeypatch.setattr(spectrum, "find_spectrum", refused)
    assert command(cfg(), **state).rows


class TestSelfChecks:
    """Each table's checks on the solved arrays, which a correct solve never
    trips, fed arrays that trip them; each names the numbers it saw."""

    @staticmethod
    def solve_edited(monkeypatch, edit):
        solve = spectrum._solve
        monkeypatch.setattr(spectrum, "_solve", lambda spec, e_max: edit(*solve(spec, e_max)))

    def test_too_few_states_for_n_max(self, monkeypatch):
        self.solve_edited(monkeypatch, lambda *columns: tuple(c[:3] for c in columns))
        with pytest.raises(RuntimeError, match=re.escape("only 3 states found, n_max=5")):
            cmd_spectrum(RunConfig(n_max=5))

    def test_energies_out_of_order(self, monkeypatch):
        energy = spectrum._solve(WellSpec(3.0, 3.0, 20.0), 35.0)[0].tolist()

        def swapped(e, *rest):
            return (e[[0, 1, 2, 4, 3, 5, 6, 7, 8]], *rest)

        self.solve_edited(monkeypatch, swapped)
        with pytest.raises(RuntimeError, match=re.escape(
                f"emitted energies are not strictly increasing: state 5 at E={energy[3]!r} "
                f"follows state 4 at E={energy[4]!r}")):
            cmd_spectrum(cfg())

    def test_side_probabilities_that_do_not_sum_to_1(self, monkeypatch):
        def scaled(e, k, w, below, amp_left, amp_right, *rest):
            grow = np.where(np.arange(e.size) == 2, 1.1, 1.0)
            return (e, k, w, below, amp_left * grow, amp_right * grow, *rest)

        self.solve_edited(monkeypatch, scaled)
        with pytest.raises(RuntimeError, match=re.escape(
                "side probabilities of state 3 do not sum to 1: their sum is 1.21")):
            cmd_compare(cfg())

    def test_classical_probability_outside_the_envelope(self, monkeypatch):
        first_above = next(e for e in spectrum._solve(WellSpec(3.0, 3.0, 20.0), 35.0)[0].tolist()
                           if e > 20.0)
        shares = classical._time_shares

        def shifted(spec, energies):
            t_left, t_right, p_left, p_right = shares(spec, energies)
            return t_left, t_right, p_left + 1.0, p_right

        monkeypatch.setattr(classical, "_time_shares", shifted)
        with pytest.raises(RuntimeError, match=re.escape(
                f"classical probability escapes the bound envelope at E={first_above!r}")):
            cmd_compare(cfg())

    def test_smoothed_spectrum_short_of_the_sharp_step(self, monkeypatch):
        find = shooting.find_spectrum_numeric
        monkeypatch.setattr(shooting, "find_spectrum_numeric", lambda *args: find(*args)[:4])
        with pytest.raises(RuntimeError, match=re.escape(
                "smoothed spectrum has 4 states below its cap 43.2066, fewer than the sharp "
                "step's 9")):
            cmd_smoothing(cfg())


class TestLevelCap:
    """``report._level_cap`` lies above level n of the grid's and the closed form's
    spectrum, and never above the flat-well bound the ``n_max`` cutoff was before."""

    @given(family=st.sampled_from(["step", "sigmoid", "ramp"]), a=st.floats(0.3, 5.0),
           b=st.floats(0.3, 5.0), depth=st.floats(0.0, 1.0), scale=st.floats(0.01, 0.5),
           cells=st.integers(50, 2000), n=st.integers(1, 34))
    @settings(max_examples=120)
    def test_caps_level_n(self, family, a, b, depth, scale, cells, n):
        smoothing = {"step": None, "sigmoid": Exponential(scale),
                     "ramp": Linear(scale * min(a, b))}[family]
        # v0 log-uniform from 0 up to 5e4
        spec = WellSpec(a, b, (5e4 + 1.0) ** depth - 1.0, smoothing)
        cap = report._level_cap(spec, n)
        flat = (n * math.pi / (a + b)) ** 2 + spec.v0 + 1.0
        assert cap <= np.nextafter(flat, math.inf)
        # the least even grid, at least 2 * cells, that holds the floor and puts
        # the cap below half its top, V(-a) + 6 / h^2
        floor_a = float(potential.sample(spec, np.array([-a]))[0])
        need = (a + b) * math.sqrt(max(cap - floor_a / 2.0, spec.v0 / 4.0) / 3.0)
        n_grid = max(2 * cells, 2 * int(need / 2.0) + 2)
        assume(n_grid <= 4000)
        grid = shooting._stable_grid(spec, n_grid)
        assume(cap < grid.top / 2.0)
        assert shooting._count_below(grid, [cap])[0][0] >= n
        if family == "step" and math.sqrt(spec.v0) * b <= 350.0:
            assert spectrum._count_below(spec, [cap])[0][0] >= n


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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["a", "b", "v0", "delta", "epsilon", "e_max", "p_max"])
    def test_non_finite_settings_rejected(self, field, value):
        # delta and epsilon are checked whatever the smoothing, since the
        # smoothing command uses one of them on a sharp-step configuration
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cfg(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("p_max", 0.0, "p_max must be finite and positive"),
        pytest.param("points", 2, "points must be an integer of at least 3",
                     id="points-2-points must be at least 3"),
        pytest.param("samples", 4, "samples must be an integer of at least 5",
                     id="samples-4-samples must be at least 5"),
        # the parser rejects these two before a RunConfig is built
        ("n_max", 2, "exactly one of e_max / n_max must be set"),
        ("smoothing", "cubic", "smoothing must be one of none, exponential, linear, got 'cubic'"),
    ])
    def test_out_of_range_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            cfg(**{field: value})

    @pytest.mark.parametrize("call, message", [
        (lambda: cmd_smoothing(RunConfig(e_max=35.0, grid=4000.0)),
         "grid must be an integer of at least 100, got 4000.0"),
        (lambda: cmd_wavefunction(RunConfig(e_max=35.0, samples=801.0), 3),
         "samples must be an integer of at least 5, got 801.0"),
        (lambda: cmd_spectrum(RunConfig(n_max=2.5)),
         "n_max must be an integer of at least 1, got 2.5"),
        (lambda: RunConfig(n_max=True), "n_max must be an integer of at least 1, got True"),
        (lambda: cmd_momentum(RunConfig(e_max=35.0, points=math.nan), 3),
         "points must be an integer of at least 3, got nan"),
        (lambda: cmd_wavefunction(RunConfig(e_max=35.0), 2.5),
         "state n must be an integer of at least 1, got 2.5"),
    ], ids=["grid", "samples", "n_max", "n_max-bool", "points-nan", "state-n"])
    def test_non_integer_counts_refused(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_numpy_integer_counts_accepted(self):
        config = RunConfig(n_max=np.int64(3), samples=np.int32(5), grid=np.int64(4000))
        assert cmd_spectrum(config).rows == cmd_spectrum(RunConfig(n_max=3)).rows
        assert cmd_wavefunction(config, np.int64(2)).rows == cmd_wavefunction(
            RunConfig(n_max=3, samples=5), 2).rows

    def test_conflicting_cutoffs_rejected(self):
        with pytest.raises(SystemExit):
            main(["spectrum", "--e-max", "35", "--n-max", "9"])

    def test_n_max_whose_cutoff_overflows_rejected(self):
        # _level_cap's numpy (n pi / (x + a)) ** 2 overflows to inf at this width
        with pytest.raises(ValueError, match=re.escape(
                "n_max must be at most 2**53 and set a finite energy cutoff, got 1")):
            RunConfig(n_max=1, a=1.5e-200, b=1.5e-200)

    def test_wavefunction_cli(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wavefunction", "--n", "2", "--samples", "201",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[13] == "x,psi,density,potential,classical_density"
