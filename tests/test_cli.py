"""The command line as a whole: frozen table bytes, the flags each subcommand
accepts, and clean ``python -m asymwell`` and ``python -m asymwell.report`` starts."""
import hashlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import asymwell
from asymwell import Exponential, Linear, WellSpec, report, shooting
from asymwell.report import Table, main

# sha256 of the standard tables, recorded before the parser was derived from
# RunConfig; any change to these bytes must be deliberate
GOLDEN_SHA256 = {
    "spectrum": "87d57d87cd289c880f4feb0f35c862fac3099827e141e3015c1bcc1d4cfb7e63",
    "compare --e-max 100": "0883338cdb3a1bae4c82ebb47d649e966db32c850342db9b9f220e1b2010a548",
    "wavefunction --n 6": "f5d57fe80bc5e8e60373589de95c26f5a739bc41e96e7b96a5ebf06d5214ee48",
    "momentum --n 5": "9c6e10d089bc534e9e940cf80f628f276b7b0b2a2a0dc56a85a87031b38ed3e6",
    "momentum --n 5 --format json":
        "8af13d01b7d5d1fafb4a9ea835e3064bd4e26c79cb57496d619caed867e41e8a",
}

# sha256 of tables that go through the Numerov solver and its Simpson
# quadrature, recorded from the states built by one pass from b, "smoothing",
# "--a 2 --b 4.3", "--n-max 5" and its JSON form once the roots were those of
# psi(-a) from b; "--a 2 --b 4.3" integrates a left half with an even number
# of samples.  All six re-recorded from the renormalized Numerov kernel, and
# the smoothing tables again once the route reported its polished brackets'
# midpoints, with no replay of the fixed scan, and once more when the polish
# took an inverse quadratic step.  All six re-recorded again from the kernel in
# the summed form, whose roundoff floor sits about 25 times lower, and the four
# that moved once more from its 256-cell blocks joined by a product tree
SHOOTING_SHA256 = {
    "smoothing": "3fdb0155419568b3eac6a300ed4951420bb9608a78eadecd347029005ce62350",
    "smoothing --smoothing linear":
        "ff5321e62d9fcf4948fe934096f6e03eebeff869dd89300b20f63a6e823056a3",
    "smoothing --a 2 --b 4.3": "9172cc1d41dc77cf9f1a1799f43760b1a40ed7639d12d3c404764265bb01b82b",
    "wavefunction --n 3 --smoothing exponential --epsilon 0.2":
        "59df6a55a1b20af83bd390f68e8aa8428e0d3e88ee21608fc10242a0f88aca6e",
    # recorded while the smoothing table still read EigenStates: a state-count
    # cutoff, and a flat floor whose sharp-step side has no step at all
    "smoothing --n-max 5": "eab460a69fc60b314c7e083898535b67b85846e37c07182902cc348b64a03576",
    "smoothing --v0 0": "5ee1534ae207907577cebc403d3839ca2dc1ed36fea8f63ddea4f053ef3b4c35",
    # 37 states: the count and the normalizations run trajectories 31, 18, 32 and 5
    # energies wide, recorded while a trajectory wider than 10 took a numpy carry
    "smoothing --e-max 400": "c8078c1678d518f33f39126a3e7a631f47bcc7caa5789d8cb8003da57b2fb897",
}

# sha256 of the JSON form of the standard tables, recorded while render_json
# still dumped the whole document with json.dumps(indent=2), except smoothing,
# recorded with the SHOOTING_SHA256 tables; the compare table holds null, int
# and string cells
JSON_SHA256 = {
    "spectrum --format json": "ebf8ad83e9695015202a77bef334c1c77e59258b13d07717c1305fcbd3d28fba",
    "compare --e-max 100 --format json":
        "715e100f2ab9e7b317809e333fa53e9431f81835790c264a50758a2a5205ed2a",
    "wavefunction --n 6 --format json":
        "a8a5d7a930c799ac71a39584deb449889b45949bd144a3c8017ad76da41449d0",
    "smoothing --format json": "e138e8cf36ad6e73ec157b6b003219a7878ad33918654a6768611955c0632bc6",
}

# sha256 of compare tables recorded before the table was built from arrays:
# evanescent and oscillatory states, equal envelopes (empty match_class), a
# state-count cutoff, and 63 states with both match classes
COMPARE_SHA256 = {
    "compare --a 2 --b 4 --v0 60 --e-max 300":
        "a06efcc0cb5d7520f41e214672f3d4bea2eb58cfd9959e9aa8c723d054e326ac",
    "compare --v0 0": "948ff86e4d1553a31b7f4f38c680cc2b737d3616a7c5c0b163cbeb597bc6062d",
    "compare --n-max 5": "a3230fca6ed5877ff5714f5ffdcef06c58af51b188255e88c44418d23fa602ff",
    "compare --a 1 --b 1 --v0 100 --e-max 1e4 --format json":
        "fc15fc5e2fb08a15256197baba5e668bbaa9cc45cb6be6485821330c1a3bd6bd",
}

# a non-default value for every flag; --out is set by the test itself
SHARED_FLAGS = {"--a": 2.5, "--b": 3.5, "--v0": 15.0, "--smoothing": "linear",
                "--delta": 0.3, "--epsilon": 0.5, "--grid": 2000, "--format": "json"}
CUTOFF_FLAGS = {"--e-max": 20.0, "--n-max": 4}
OWN_FLAGS = {
    "spectrum": {},
    "wavefunction": {"--n": 3, "--samples": 201},
    "compare": {},
    "smoothing": {},
    "momentum": {"--n": 3, "--p-max": 12.5, "--points": 101},
}


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


@pytest.mark.parametrize("args", [*GOLDEN_SHA256, *SHOOTING_SHA256])
def test_standard_tables_match_frozen_digests(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == {**GOLDEN_SHA256, **SHOOTING_SHA256}[args]


@pytest.mark.parametrize("args", list(JSON_SHA256))
def test_json_tables_match_frozen_digests(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == JSON_SHA256[args]


@pytest.mark.parametrize("args", list(COMPARE_SHA256))
def test_compare_tables_match_frozen_digests(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == COMPARE_SHA256[args]


@pytest.mark.parametrize("cutoff", list(CUTOFF_FLAGS))
@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_every_flag_reaches_config_and_header(command, cutoff, tmp_path, monkeypatch):
    seen = {}

    def fake(config, **state):
        seen.update(config=config, **state)
        return Table(command, report._config_items(config, command, **state), ["x"], [])

    # main looks the command up at call time, so the stub replaces the solver
    monkeypatch.setattr(report, f"cmd_{command}", fake)
    flags = {**SHARED_FLAGS, cutoff: CUTOFF_FLAGS[cutoff], **OWN_FLAGS[command]}
    out = tmp_path / "table.json"
    argv = [command, "--out", str(out)]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    assert main(argv) == 0

    config, header = seen["config"], json.loads(out.read_text())["config"]
    assert config.out == str(out)
    for flag, value in flags.items():
        key = _key(flag)
        got = seen[key] if key == "n" else getattr(config, key)
        assert got == value and type(got) is type(value), flag
        assert header[key] == value, flag
    other_cutoff = _key(next(f for f in CUTOFF_FLAGS if f != cutoff))
    assert getattr(config, other_cutoff) is None and header[other_cutoff] is None


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_flags_of_other_commands_rejected(command):
    foreign = {flag for own in OWN_FLAGS.values() for flag in own}
    foreign -= set(OWN_FLAGS[command])
    assert foreign
    own = [f"{flag}={value}" for flag, value in OWN_FLAGS[command].items()]
    for flag in sorted(foreign):
        with pytest.raises(SystemExit):
            main([command, *own, flag, "5"])


@pytest.mark.parametrize("argv", [["spectrum", "--n", "3"], ["spectrum", "--e", "30"],
                                  ["momentum", "--n", "2", "--p", "5"]])
def test_abbreviated_flags_rejected(argv, capsys):
    # spectrum takes no --n; an abbreviation must not be read as --n-max
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_smoothed_wavefunction_on_a_coarser_grid(capsys):
    # 801 samples fall between the 2000 cells; the emitted density must still
    # pass the unit-norm check
    argv = "wavefunction --n 3 --smoothing linear --epsilon 0.3 --e-max 25 --grid 2000"
    assert main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "x,psi,density,potential,classical_density" and len(body) == 1 + 801


def test_coarse_grid_wavefunction_passes_the_norm_check(capsys):
    # the 100-cell solution interpolated onto 801 samples loses 2.95e-5 of its
    # norm, within the tolerance the 0.06 cell sets
    assert main("wavefunction --n 3 --smoothing linear --grid 100".split()) == 0
    body = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(body) == 1 + 801


def test_unnormalized_wavefunction_names_its_numbers(monkeypatch, capsys):
    # scale the density off unit norm by 2.95e-5
    interp = report._cubic_interp
    monkeypatch.setattr(report, "_cubic_interp",
                        lambda *args: interp(*args) * math.sqrt(1.0 - 2.95e-5))
    assert main("wavefunction --n 3 --smoothing linear".split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"asymwell wavefunction: solve: emitted density column is not "
                        r"unit-normalized: its Simpson integral is 0\.99997\d+, off 1 by "
                        r"2\.95e-05, past the tolerance 2e-06 \(grid=4000, samples=801\)\n",
                        err), err


def test_wavefunction_at_the_walls_names_its_values(monkeypatch, capsys):
    monkeypatch.setattr(report, "_cubic_interp", lambda x, *_: np.full(x.shape, 3e-9))
    assert main("wavefunction --n 1 --smoothing linear --samples 101".split()) == 1
    assert capsys.readouterr().err == ("asymwell wavefunction: solve: wavefunction does not "
                                       "vanish at the walls: psi(-a) = 3e-09, psi(b) = 3e-09, "
                                       "past the tolerance 1e-09 (grid=4000, samples=101)\n")


def test_matching_residual_names_the_tolerance(capsys):
    # the root policy's tolerance is absolute below E = 1, and this well's ground
    # level sits at 2.7e-9: the refusal names that tolerance and the well's scale
    message = ("matching residual 2.397e-05 at E=2.741598610916957e-09: energy is not a root "
               "of the characteristic within the solve tolerance 1e-13 = 3.65e-05 E, at the "
               "ground scale (pi/(a+b))^2 = 2.74e-09")
    with pytest.raises(ValueError, match=re.escape(message)):
        asymwell.find_spectrum(WellSpec(3e4, 3e4, 0.0), 1e-8)
    assert main("spectrum --a 30000 --b 30000 --v0 0 --e-max 1e-8".split()) == 1
    assert capsys.readouterr() == ("", f"asymwell spectrum: solve: {message}\n")


@pytest.mark.parametrize("argv", [
    "spectrum --e-max inf", "spectrum --a inf", "spectrum --b inf", "spectrum --v0 inf",
    "smoothing --delta inf", "smoothing --smoothing linear --epsilon inf",
    "compare --e-max nan", "spectrum --v0 nan",
    "momentum --n 2 --p-max inf", "momentum --n 2 --p-max nan",
    # counts below their floor fail at the same stage
    "momentum --n 2 --points 2", "wavefunction --n 2 --samples 3",
])
def test_non_finite_flags_fail_at_config(argv, capsys):
    command, flag, value = argv.split()[0], argv.split()[-2], argv.split()[-1]
    bound = "finite" if value in ("inf", "nan") else "an integer of at least"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv.split()) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(rf"asymwell {command}: config: ([\w-]+ )*{_key(flag)} must be {bound}.*\n",
                        err), err


def _run_python(*args: str, preexec_fn=None) -> subprocess.CompletedProcess:
    src = str(Path(asymwell.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120,
                          preexec_fn=preexec_fn)


def _run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    return _run_python("-m", module, *args)


def test_cold_module_run_prints_nothing_on_stderr():
    proc = _run_module("asymwell.report", "spectrum")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.startswith(b"# asymwell spectrum\n")


def test_package_runs_as_module():
    proc = _run_module("asymwell", "spectrum")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256["spectrum"]


# print the scipy modules a run left in sys.modules, after its own output
_SCIPY_LOADED = ("import sys\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
                 " file=sys.stderr)\n")


def test_import_loads_no_scipy():
    proc = _run_python("-c", "import asymwell, asymwell.report\n" + _SCIPY_LOADED)
    assert proc.returncode == 0
    assert proc.stderr == b"[]\n"


# print the solver modules a run left in sys.modules, after its scipy line
_SOLVERS_LOADED = ("print([m for m in ('asymwell.shooting', 'asymwell.momentum')"
                   " if m in sys.modules], file=sys.stderr)\n")


def test_package_run_loads_no_scipy():
    # python -m asymwell <command>, run in-process so sys.modules can be read after
    # it: no table loads scipy, the closed-form tables leave the shooting solver
    # unloaded, and only momentum loads the momentum transform
    run = ("import runpy\n"
           "try:\n"
           "    runpy.run_module('asymwell', run_name='__main__', alter_sys=True)\n"
           "except SystemExit as exc:\n"
           "    assert exc.code == 0, exc.code\n")
    for argv, solvers in [("spectrum", []), ("compare --e-max 100", []),
                          ("wavefunction --n 6", []), ("momentum --n 5", ["asymwell.momentum"])]:
        proc = _run_python("-c", run + _SCIPY_LOADED + _SOLVERS_LOADED, *argv.split())
        assert proc.returncode == 0, argv
        assert proc.stderr.decode() == f"[]\n{solvers}\n", argv
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256[argv], argv


def test_import_resolves_solvers_on_first_use():
    check = ("import asymwell\n" + _SCIPY_LOADED + _SOLVERS_LOADED +
             "print(sorted(m for m in sys.modules if m == 'numpy' or"
             " m.startswith('asymwell.')), file=sys.stderr)\n"
             "assert set(asymwell.__all__) <= set(dir(asymwell))\n"
             "from asymwell import momentum, shooting\n"
             "assert all(getattr(asymwell, name) is not None for name in asymwell.__all__)\n"
             "assert asymwell.shooting is shooting and asymwell.momentum is momentum\n"
             "assert asymwell.find_spectrum_numeric is shooting.find_spectrum_numeric\n"
             "assert asymwell.density_series is momentum.density_series\n"
             "assert not hasattr(asymwell, 'no_such_name')\n" + _SOLVERS_LOADED)
    proc = _run_python("-c", check)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == "[]\n[]\n[]\n['asymwell.shooting', 'asymwell.momentum']\n"


def test_dir_lists_every_name_without_loading_its_module():
    # sorted, with every exported name and submodule, both here and in a fresh
    # interpreter, where listing them must load no submodule
    listed = dir(asymwell)
    assert listed == sorted(listed)
    assert {*asymwell.__all__, *asymwell._EXPORTS} <= set(listed)
    proc = _run_python("-c", "import sys, asymwell\n"
                       "listed = dir(asymwell)\n"
                       "assert listed == sorted(listed)\n"
                       "assert {*asymwell.__all__, *asymwell._EXPORTS} <= set(listed)\n"
                       "print(sorted(m for m in sys.modules if m.startswith('asymwell.')),"
                       " file=sys.stderr)\n")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode() == "[]\n"


def test_package_names_are_their_modules_exports():
    # the root's name table lists each module's __all__, and every name it
    # resolves is the module's own object
    for module, names in asymwell._EXPORTS.items():
        loaded = getattr(asymwell, module)
        assert sorted(names) == sorted(loaded.__all__), module
        for name in names:
            assert getattr(asymwell, name) is getattr(loaded, name), name


# what a stage-labelled exit 1 may say over random geometry at the default cutoff
RANDOM_GEOMETRY_REFUSALS = [
    # the sqrt(v0)*b overflow guard (ROADMAP items 4 and 15)
    r"step height v0=\S+ is too large for this geometry: .*",
    # the root policy's tolerance, absolute below E = 1 (item 13)
    r"matching residual \S+ at E=\S+: energy is not a root of the characteristic .*",
    # a correct refusal: the well's ground state lies above the cutoff
    r"state n=1 not found below the energy cutoff .*",
    r"n_grid=\d+ is too coarse for a floor of height \S+: Numerov needs n_grid >= \d+ here",
    r"e_max=\S+ reaches \S+, the top of the \d+-cell grid's spectrum: .*",
]


def test_random_geometry_exits_zero_or_by_stage(capsys):
    # a, b log-uniform in [1e-2, 1e3] and v0 in [1e-3, 1e6], seeded, 24 calls
    # of each subcommand: exit 0, or exit 1 with a solve-stage line from the
    # list, and never a traceback; the smoothed well on a 400-cell grid
    rng = random.Random(3)
    for i in range(120):
        command = list(report._COMMANDS)[i % 5]
        a, b, v0 = (10.0 ** rng.uniform(lo, hi) for lo, hi in ((-2, 3), (-2, 3), (-3, 6)))
        argv = [command, "--a", repr(a), "--b", repr(b), "--v0", repr(v0), "--grid", "400"]
        code = main(argv + ["--n", "1"] if report._COMMANDS[command][1] else argv)
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out.startswith(f"# asymwell {command}\n"), argv
        else:
            assert code == 1, argv
            prefix = f"asymwell {command}: solve: "
            assert err.startswith(prefix) and err.endswith("\n"), (argv, err)
            assert any(re.fullmatch(refusal, err[len(prefix):-1])
                       for refusal in RANDOM_GEOMETRY_REFUSALS), (argv, err)


@pytest.mark.parametrize("e_max", ["8.224670334241132", "16.449340668482264"],
                         ids=["30-E1", "60-E1"])
def test_flat_well_cutoff_on_a_level_probe_solves(e_max, capsys):
    # 30 and 60 times the ground state put count probes on levels of the flat well
    assert main(["spectrum", "--v0", "0", "--e-max", e_max]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("# asymwell spectrum\n")


def _cap_address_space() -> None:
    # 1 GiB holds the interpreter and numpy but none of the arrays asked for below,
    # so their allocation fails at once whatever memory the host has
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    "momentum --n 2 --points 1000000000000", "momentum --n 2 --p-max 1e9",
    "wavefunction --n 2 --samples 100000000000",
])
def test_oversized_counts_fail_at_solve(argv):
    proc = _run_python("-m", "asymwell", *argv.split(), preexec_fn=_cap_address_space)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert re.fullmatch(rf"asymwell {argv.split()[0]}: solve: Unable to allocate .*\n", err), err


@pytest.mark.parametrize("argv", ["spectrum --a 1e200 --b 1 --e-max 1e-300",
                                  "compare --e-max 1e300"])
def test_uncountable_level_counts_fail_at_solve(argv):
    # more levels below e_max than 2**53: refused before the scan, with no
    # traceback from the scan step and no cast warning from the count
    proc = _run_python("-m", "asymwell", *argv.split())
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert re.fullmatch(rf"asymwell {argv.split()[0]}: solve: e_max=\S+ holds \S+ levels.*\n",
                        err), err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", [
    "spectrum --a 1e-6 --b 1e-6 --v0 0 --e-max 1e16",
    "spectrum --a 1e-150 --b 1e-150 --v0 0 --e-max 1.7976931348623157e308",
], ids=["1e16", "float-max"])
def test_cutoff_past_the_scan_reach_fails_at_solve(argv):
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "asymwell", *argv.split())
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert re.fullmatch(r"asymwell spectrum: solve: e_max=\S+ is past the fixed scan's reach: "
                        r"its cell \S+ is below 4 eps e_max = \S+\n", err), err


@pytest.mark.parametrize("argv, message", [
    ("spectrum --e-max 1e15", r"e_max=\S+ is past the fixed scan's reach: .*"),
    ("spectrum --n-max 100000000", r"e_max=\S+ is past the fixed scan's reach: .*"),
    # a float count of 2**53 may be 2**53 + 1 rounded, whose parity says nothing
    ("spectrum --n-max 9007199254740992",
     r"e_max=\S+ holds 9\.0072e\+15 levels, more than the 2\*\*53 that a float counts exactly"),
], ids=["e-max-1e15", "n-max-1e8", "n-max-2-53"])
def test_cutoffs_refused_from_the_count_at_the_probes(argv, message):
    # 6e7 and 1e8 levels: refused from the count at the probes, before a split
    # into one energy per level, which would ask for about 8.8 GB
    proc = _run_python("-m", "asymwell", *argv.split(), preexec_fn=_cap_address_space)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert re.fullmatch(rf"asymwell spectrum: solve: {message}\n", err), err


@pytest.mark.parametrize("argv, message", [
    ("compare --smoothing exponential", "the comparison table requires the sharp step"),
    ("momentum --n 1 --smoothing linear",
     "momentum densities are computed from the closed-form states and require the sharp step"),
])
def test_closed_form_tables_refuse_smoothed_wells(argv, message, capsys):
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"asymwell {argv.split()[0]}: solve: {message}\n"


def test_momentum_past_the_bound_fails_at_solve(capsys):
    # p**2 and p sinh(qbar b) overflowed here, and the table printed nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main("momentum --n 1 --v0 10000 --points 5 --p-max 1e200".split()) == 1
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "asymwell momentum: solve: p_max must be at most 1e+150, got 1e+200\n"


@pytest.mark.parametrize("argv, smooth, e_max", [
    # a ramp of half-width 2.9 lifts the floor of most of the left pocket, so the
    # ground state moves by 4.26 times its sharp-step energy
    ("smoothing --smoothing linear --epsilon 2.9", WellSpec(3, 3, 20, Linear(2.9)), 35.0),
    ("smoothing --v0 200", WellSpec(3, 3, 200, Exponential(0.2)), 35.0),
    # a sigmoid of scale 0.19 fills much of a left pocket of width 0.5: the two
    # sharp-step states rise to 297 and 503, past the cutoff of 160
    ("smoothing --a 0.5 --b 5 --v0 1500 --delta 0.19 --e-max 160",
     WellSpec(0.5, 5, 1500, Exponential(0.19)), 160.0),
], ids=["ramp-2.9", "v0-200", "narrow-left-pocket"])
def test_large_smoothing_shift_is_emitted(argv, smooth, e_max, capsys):
    # levels pair by index and both spectra are complete from the ground state,
    # so a large shift is emitted, not refused; the smoothed column holds the
    # lowest levels below the bracketing cap
    assert main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    step = WellSpec(smooth.a, smooth.b, smooth.v0)
    assert len(rows) == len(asymwell.find_spectrum(step, e_max))
    sols = shooting.find_spectrum_numeric(smooth, report._level_cap(smooth, len(rows)), 4000)
    assert [float(row[2]) for row in rows] == [
        float(f"{sol.energy:.12g}") for sol in sols[:len(rows)]]


def test_cutoff_past_the_numeric_spectrum_fails_at_solve(capsys):
    # the 4000-cell grid's spectrum ends at 6 / h^2 = 2.67e6, below the cap of 3e6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["smoothing", "--e-max", "3e6"]) == 1
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"asymwell smoothing: solve: e_max=\S+ .*2\.66667e\+06.*"
                        r"n_grid >= \d+ here\n", err), err


@pytest.mark.parametrize("argv", ["compare --n-max 1" + "0" * 160,
                                  "spectrum --n-max 100000000000000000000"],
                         ids=["compare-1e160", "spectrum-1e20"])
def test_huge_n_max_fails_at_config(argv):
    # past 2**53 states n_max is refused by name, before the cutoff formula
    # runs; both inputs take that branch (test_report covers a cutoff that
    # overflows under ** for an n_max below it)
    proc = _run_python("-m", "asymwell", *argv.split())
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert re.fullmatch(rf"asymwell {argv.split()[0]}: config: n_max must be .*\n", err), err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("n, code", [(2, 0), (4, 1)])
def test_smoothed_wavefunction_takes_the_lowest_n_max_states(n, code, capsys):
    argv = f"wavefunction --n {n} --n-max 3 --smoothing exponential".split()
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("asymwell wavefunction: solve: state n=4 not found"), err


@pytest.mark.parametrize("n", [1, 3, 5])
def test_closed_form_wavefunction_ends_on_positive_zero(n, capsys):
    # odd states have amp_right < 0, and amp_right * sin(0) printed as "-0"
    assert main(["wavefunction", "--n", str(n)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("3,0,0,20,")


@pytest.mark.parametrize("command", list(OWN_FLAGS))
@pytest.mark.parametrize("grid, message", [
    pytest.param("0", "an integer of at least 100", id="0-at least 100"), ("101", "even")])
def test_bad_grid_fails_at_config(command, grid, message, capsys):
    # the grid is refused before any solving, also by the closed-form tables
    argv = [command, *(f"{flag}={value}" for flag, value in OWN_FLAGS[command].items())]
    assert main([*argv, "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert err == f"asymwell {command}: config: grid must be {message}, got {grid}\n"
