"""Package metadata: the version has one source, ``repro.__version__``."""

import pathlib
import re

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_single_sourced():
    text = PYPROJECT.read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^version\s*=", project, re.M)  # no second copy
    assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', project, re.M)
    assert 'version = { attr = "repro.__version__" }' in text
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
