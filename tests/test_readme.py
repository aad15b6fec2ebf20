"""README.md stays true to the package: its ``python`` code blocks run as
written, and its inline-code calls name functions the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import socicnn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    """Each block runs in a fresh namespace, so a documented name that the
    package no longer exports fails here."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for k, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {k}", "exec"), {"__name__": "readme"})


def test_inline_calls_name_package_attributes():
    """Every call ``name(`` inside inline code in README.md names an
    attribute of ``socicnn`` or of one of its submodules (a dotted name is
    followed attribute by attribute), so a function deleted from the package
    but left in the prose fails here.  ``default_rng``, ``max`` and ``f``
    are the NumPy, builtin and math names the prose uses."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    calls = {
        m.group(1)
        for span in re.findall(r"`([^`]+)`", text)
        for m in re.finditer(r"([A-Za-z_][\w.]*)\(", span)
    }
    assert "readout" in calls
    submodules = pkgutil.iter_modules(socicnn.__path__)
    modules = [socicnn] + [importlib.import_module(f"socicnn.{m.name}") for m in submodules]

    def resolves(name):
        head, *rest = name.split(".")
        for module in modules:
            obj = getattr(module, head, None)
            for attr in rest:
                obj = getattr(obj, attr, None)
            if obj is not None:
                return True
        return False

    missing = sorted(name for name in calls - {"default_rng", "max", "f"} if not resolves(name))
    assert not missing, missing
