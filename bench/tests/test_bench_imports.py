"""The end-to-end path stays on the repro.api / repro.campaign surface."""

import os
import re

from bench import ROOT

ALLOWED = {"repro.api", "repro.api.result", "repro.campaign"}
#: The one module allowed to reach below the surface (at run time).
PROBE_MODULE = "probes.py"
IMPORT = re.compile(r"^\s*(?:from|import)\s+(repro(?:\.\w+)*)", re.MULTILINE)


def _sources():
    base = os.path.join(ROOT, "bench")
    for folder, _dirs, files in os.walk(base):
        if os.path.basename(folder) in ("tests", "__pycache__", ".tmp"):
            continue
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def test_only_the_probe_module_reaches_below_the_api_surface():
    seen = set()
    for path in _sources():
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if os.path.basename(path) == PROBE_MODULE:
            continue
        for module in IMPORT.findall(text):
            seen.add(module)
            assert module in ALLOWED, f"{path} imports {module}"
        # Run-time imports by name belong in the probe module too.
        assert "import_module" not in text and "__import__" not in text, path
    assert "repro.api" in seen and "repro.campaign" in seen


def test_probe_module_imports_nothing_from_repro_at_import_time():
    with open(os.path.join(ROOT, "bench", PROBE_MODULE), "r", encoding="utf-8") as fh:
        assert IMPORT.findall(fh.read()) == []
