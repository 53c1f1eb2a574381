"""Every committed benchmark record names the environment it was measured in."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT = ("nproc", "python", "numpy")


def test_every_record_names_its_environment():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, f"no BENCH_*.json in {ROOT}"
    missing = {}
    for path in records:
        record = json.loads(path.read_text())
        if unnamed := [key for key in ENVIRONMENT if record.get(key) is None]:
            missing[path.name] = unnamed
    assert not missing, f"records without an environment value: {missing}"
