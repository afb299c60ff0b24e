"""Test-session set-up shared by every suite.

pytest puts ``src/`` on its own import path (``pythonpath`` in
pyproject.toml); the tests that start the CLI as a subprocess need the
same path in the environment they pass on, so an uninstalled checkout
runs the whole suite with a plain ``python3 -m pytest``.
"""

from __future__ import annotations

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
