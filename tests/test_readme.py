"""The README's library quickstart runs, and the values its comments show hold."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each commented quickstart expression, mapped to the values its comment shows
SHOWN = {
    "side_probabilities(st6)": lambda pair: pair,
    "classical_model(well, st6.energy).p_left": lambda p: (p,),
    "bounds_at(well, st6.energy)": lambda bounds: (bounds.lower, bounds.upper),
    "side_probability_numeric(sols[5])": lambda p: (p,),
}


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _shows(value: float, text: str) -> bool:
    """True if ``text`` prints ``value``: its leading digits when it ends in '...'."""
    if text.endswith("..."):
        return repr(value).startswith(text[:-3])
    return value == float(text)


def test_library_quickstart_comments_hold():
    block = _quickstart()
    scope: dict = {}
    exec(block, scope)
    pairs = (line.split("  #", 1) for line in block.splitlines() if "  #" in line)
    comments = {code.strip(): comment.strip() for code, comment in pairs}

    for code, values in SHOWN.items():
        shown = re.findall(r"\d+\.\d+(?:\.\.\.)?", comments[code])
        got = values(eval(code, scope))
        assert len(shown) == len(got) and all(map(_shows, got, shown)), (code, got, shown)
    assert comments["classify_matching(st6).kind"] == "MatchKind.NEAR_ANTINODE"
    assert str(eval("classify_matching(st6).kind", scope)) == "MatchKind.NEAR_ANTINODE"
    assert comments["states = find_spectrum(well, e_max=35.0)"] == "nine states, ordered by energy"
    assert len(scope["states"]) == 9
    assert len(scope["series"].density) == 4001
