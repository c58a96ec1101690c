"""Package metadata: the version has one source, ``repro.__version__``,
and a run imports no dependency it does not use."""

import os
import pathlib
import re
import subprocess
import sys

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: modules a run must never pull in (networkx is a test-only oracle)
UNUSED = ("networkx", "scipy")


def project_table() -> str:
    return PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]


def test_version_is_single_sourced():
    text = PYPROJECT.read_text()
    project = project_table()
    assert not re.search(r"^version\s*=", project, re.M)  # no second copy
    assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', project, re.M)
    assert 'version = { attr = "repro.__version__" }' in text
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_unused_modules_are_not_dependencies():
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project_table(),
                     re.M | re.S)
    assert deps is not None
    for name in UNUSED:
        assert name not in deps.group(1)


def _fresh_interpreter(code: str) -> set:
    """Run ``code`` in a new interpreter on this checkout; the module
    names it prints on its ``loaded:`` stderr line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    line = [ln for ln in out.stderr.splitlines() if ln.startswith("loaded:")]
    return set(line[-1].split()[1:])


def test_cold_import_loads_no_unused_module():
    """A fresh interpreter importing the package and the Fig 8 sweep
    (what a cold ``repro run`` and the benchmarks load) must not load
    networkx or scipy."""
    code = (
        "import sys\n"
        "import repro\n"
        "import repro.cli\n"
        "from repro.bench import run_fig8\n"
        f"print('loaded:', *[m for m in {UNUSED!r} if m in sys.modules], "
        "file=sys.stderr)\n"
    )
    assert _fresh_interpreter(code) == set()


def test_cold_run_imports_no_third_party_module_but_numpy():
    """``python -m repro run --steps 1`` in a fresh interpreter loads
    no installed package besides numpy: a heavy import such as networkx
    coming back fails here on every host, whatever its speed."""
    code = (
        "import runpy, site, sys, sysconfig\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['repro', 'run', '--steps', '1']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "dirs = {sysconfig.get_paths()[k] for k in ('purelib', 'platlib')}\n"
        "dirs.update(site.getsitepackages())\n"
        "dirs.add(site.getusersitepackages())\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print('loaded:', *sorted(m for m in loaded if any(\n"
        "    (getattr(sys.modules.get(m), '__file__', None) or '')\n"
        "    .startswith(d) for d in dirs)), file=sys.stderr)\n"
    )
    installed = _fresh_interpreter(code)
    assert not installed & set(UNUSED)
    assert installed <= {"numpy", "repro"}
