"""The public surface has callers: every name that ``soapfda`` exports is
used by the package itself or by the benchmark harness, or is documented in
README.md. A name that only tests call is a wrapper to delete. README.md
also names every field of ``FitReport``, the keys of ``report.json``."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import soapfda

ROOT = Path(__file__).resolve().parents[1]


def referenced_names() -> set[str]:
    """Every Name id and Attribute name in the package modules (not
    ``__init__.py``, which only re-exports) and in ``perfbench``."""
    files = [p for p in (ROOT / "src" / "soapfda").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def readme_names() -> set[str]:
    """Identifiers inside backticked spans of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", text)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_has_a_caller_or_readme_entry():
    exported = {
        name
        for name, obj in vars(soapfda).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    unused = exported - referenced_names() - readme_names()
    assert not unused, f"exported but only called by tests: {sorted(unused)}"


def test_readme_names_every_report_field():
    """Every ``FitReport`` field is a key of ``report.json``, so README.md
    names each one."""
    missing = {f.name for f in dataclasses.fields(soapfda.FitReport)} - readme_names()
    assert not missing, f"FitReport fields missing from README.md: {sorted(missing)}"
