"""Rewrite the golden-run corpus that tests/test_golden.py checks.

    PYTHONPATH=src python tests/golden/regen.py

Writes one JSON file per config of `test_golden.CONFIGS` into this
directory and deletes files of configs no longer listed. Run it only when a
change is meant to move runs, and name each config that moved, and why,
in the change notes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CONFIGS, GOLDEN_DIR, record  # noqa: E402


def main() -> None:
    for stale in GOLDEN_DIR.glob("*.json"):
        if stale.stem not in CONFIGS:
            stale.unlink()
    for name, config in sorted(CONFIGS.items()):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(record(config), indent=1) + "\n")
        print(path)


if __name__ == "__main__":
    main()
