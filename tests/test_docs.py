"""The README's references to package names resolve to real objects."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# `caflow.<module>.<name>`, optionally followed by ` / `other_name`` for a
# second name in the same module
_REF = re.compile(r"`caflow\.(\w+)\.(\w+)(?:\([^`]*\))?`(?:\s*/\s*`(\w+)`)?")


def test_readme_names_resolve():
    refs = _REF.findall(README.read_text(encoding="utf-8"))
    assert refs, "README mentions no caflow.<module>.<name>"
    missing = []
    for module, name, second in refs:
        mod = importlib.import_module(f"caflow.{module}")
        missing += [f"caflow.{module}.{n}" for n in (name, second) if n and not hasattr(mod, n)]
    assert not missing, f"README names objects that do not exist: {missing}"
