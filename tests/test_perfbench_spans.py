"""The traced benchmark looks each metacert function up by name.

``perfbench/spans.py`` lists them in ``SPANS``; a rename that leaves an
entry behind would break ``perfbench/run.py --trace 1`` without failing any
other test.  The file is loaded read-only: no bytecode cache is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for mod_name, attr, span in spans.SPANS:
        owner = importlib.import_module(f"metacert.{mod_name}")
        if "." in attr:
            # a method is wrapped in its class's own namespace
            cls_name, attr = attr.split(".")
            owner = vars(owner).get(cls_name)
            assert isinstance(owner, type), f"{span}: no class metacert.{mod_name}.{cls_name}"
            assert callable(vars(owner).get(attr)), f"{span}: {cls_name} defines no {attr}"
        else:
            assert callable(vars(owner).get(attr)), f"{span}: no metacert.{mod_name}.{attr}"
