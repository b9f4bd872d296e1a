"""README.md's library example runs as written, and the sizes it states
for the shipped scenarios are the propagator's."""

import re
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR
from wgqed.hierarchy import HierarchyPropagator
from wgqed.scenario import load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README.md should hold exactly one python example"
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all(printed)


def stated(pattern: str) -> list:
    """The numbers in the one group of the one README passage the pattern
    matches, across line breaks."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.findall(pattern, text)
    assert len(found) == 1, pattern
    return [int(x) for x in re.findall(r"\d+", found[0])]


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_readme_states_the_shipped_state_sizes(path):
    """The coordinate count the README gives for each shipped scenario's
    chain size is its propagator's size, and at three emitters so are the
    level sizes."""
    sc = load_scenario(path)
    assert sc.n_photons == 3  # the README states the sizes at three photons
    prop = HierarchyPropagator(sc.chain, sc.n_photons)
    counts = stated(r"stored coordinates \(([\d, ]+ and \d+) of them for 1, 2 and 3 emitters")
    assert counts[sc.chain.n_emitters - 1] == prop.size
    if sc.chain.n_emitters == 3:
        levels = [len(level.a) for level in prop.levels]
        assert stated(r"levels of ([\d, ]+ and \d+) coordinates at three emitters") == levels
