"""Import feedsched and load every curve file in a directory, then exit.

``run.py`` starts this script in a fresh interpreter several times; the
median wall time from start to exit is the benchmark's ``setup_s``.

    python3 benchmarks/setup_probe.py DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from feedsched.cli import load_curve  # noqa: E402

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    load_curve(path)
