"""The README states the file format versions the code writes."""

import re
from pathlib import Path

from metacert.hypernet import CHECKPOINT_VERSION
from metacert.tasks import FORMAT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_format_versions_are_the_code_constants():
    text = README.read_text()
    for kind, version in (("task", FORMAT_VERSION), ("checkpoint", CHECKPOINT_VERSION)):
        stated = re.findall(rf"\b{kind}\s+format\s+version\s+(\d+)", text)
        assert stated, f"README states no {kind} format version"
        assert set(stated) == {str(version)}, (kind, stated, version)
