"""The package is imported from ``src/`` (``pythonpath`` in pyproject.toml);
the child processes some tests start (``python -m shadowsim.cli``) find it
there too, so a bare ``python -m pytest`` needs no PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
