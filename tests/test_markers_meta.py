"""Meta-test: the pytest marker vocabulary stays closed.

Unregistered markers are how a tier-2 suite silently falls out of CI: a
marker typo (``obsv`` for ``obs``) still collects and passes locally,
but ``-m obs`` no longer selects it. This test cross-checks every
``pytest.mark.<name>`` usage under ``tests/`` and ``benchmarks/``
against the ``[tool.pytest.ini_options] markers`` registry in
``pyproject.toml`` — and the reverse, so stale registrations get
cleaned up rather than accumulating.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markers pytest itself defines; they never appear in pyproject.toml.
BUILTIN_MARKERS = {
    "parametrize",
    "skip",
    "skipif",
    "xfail",
    "usefixtures",
    "filterwarnings",
}


def _registered_markers() -> set[str]:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    block = re.search(r"markers\s*=\s*\[(.*?)\]", text, re.DOTALL)
    assert block, "pyproject.toml has no [tool.pytest.ini_options] markers list"
    return set(re.findall(r'"(\w+)\s*:', block.group(1)))


def _used_markers() -> dict[str, set[str]]:
    used: dict[str, set[str]] = {}
    for directory in ("tests", "benchmarks"):
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for name in re.findall(r"pytest\.mark\.(\w+)", path.read_text()):
                used.setdefault(name, set()).add(str(path.relative_to(REPO_ROOT)))
    return used


def test_every_used_marker_is_registered():
    allowed = _registered_markers() | BUILTIN_MARKERS
    unknown = {
        name: sorted(files)
        for name, files in _used_markers().items()
        if name not in allowed
    }
    assert not unknown, f"unregistered pytest markers in use: {unknown}"


def test_every_registered_marker_is_used():
    stale = _registered_markers() - set(_used_markers())
    assert not stale, f"markers registered in pyproject.toml but never used: {stale}"


def test_expected_tier2_markers_exist():
    # The documented tier-2 entry points; removing one is a breaking
    # change to the CI contract, not a cleanup.
    expected = {
        "slow",
        "faults",
        "checkpoint",
        "obs",
        "serve",
        "chaos",
        "rollout",
        "infer",
    }
    assert expected <= _registered_markers()
