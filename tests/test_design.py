"""The package keeps one representation: records live only at the edges."""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attlab"
RECORD_TYPES = re.compile(r"\b(PatientRecord|DosePlan|PotentialOutcomes)\b")


def test_only_records_and_the_package_root_name_the_record_types():
    offenders = {
        path.name: sorted(set(RECORD_TYPES.findall(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("records.py", "__init__.py")
    }
    assert {name: types for name, types in offenders.items() if types} == {}
