"""The set-up a user pays before any experiment runs: a fresh interpreter
imports fiberloc, loads and validates one config and builds its map.

    python3 bench/setup_probe.py CONFIG.json

`bench/run.py` times whole runs of this script; it prints nothing and
exits 0 on success.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fiberloc import cli, polymap  # noqa: E402

polymap.PolynomialMap.from_json(cli.load_config(sys.argv[1], {})["map"])
