"""Regenerate the state/selection-path golden summaries.

Writes ``summaries_paths.json``: the canonical summary and event count
of every cell in ``tests/test_paths_golden.py``.  Run only after a
*deliberate* change to simulated behavior::

    PYTHONPATH=src python tests/golden/make_paths_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from test_paths_golden import CELLS, GOLDEN_PATH, run_cell  # noqa: E402


def main() -> None:
    golden = {name: run_cell(**params) for name, params in CELLS.items()}
    with open(GOLDEN_PATH, "w") as stream:
        json.dump(golden, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
