"""Rewrite the golden-run corpus that tests/test_golden.py checks.

    PYTHONPATH=src python tests/golden/regen.py

Writes one JSON file per config of `test_golden.CONFIGS` and per command
of `test_golden.LOWERBOUND_COMMANDS` into this directory, and deletes
files of configs no longer listed. Run it only when a
change is meant to move runs, and name each config that moved, and why,
in the change notes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (  # noqa: E402
    CONFIGS,
    GOLDEN_DIR,
    LOWERBOUND_COMMANDS,
    record,
    record_lowerbound,
)


def main() -> None:
    records = {name: lambda c=c: record(c) for name, c in CONFIGS.items()}
    records.update(
        (name, lambda a=a: record_lowerbound(a))
        for name, a in LOWERBOUND_COMMANDS.items()
    )
    for stale in GOLDEN_DIR.glob("*.json"):
        if stale.stem not in records:
            stale.unlink()
    for name, make in sorted(records.items()):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1) + "\n")
        print(path)


if __name__ == "__main__":
    main()
