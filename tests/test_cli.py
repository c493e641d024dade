"""The command line as a whole: frozen table bytes, the flags each subcommand
accepts, and clean ``python -m asymwell`` and ``python -m asymwell.report`` starts."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asymwell
from asymwell import report
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


@pytest.mark.parametrize("args", list(GOLDEN_SHA256))
def test_standard_tables_match_frozen_digests(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[args]


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


def _run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(asymwell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, env=env, timeout=120)


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
