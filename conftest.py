"""Pytest bootstrap for the repository.

Makes the ``src/`` layout importable even when the package has not been
installed (e.g. on offline machines where ``pip install -e .`` cannot build
an editable wheel).  When ``repro`` is already installed, the installed
package wins and this is a no-op.
"""

import os
import sqlite3
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

try:  # pragma: no cover - trivial bootstrap
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)


def pytest_report_header(config):
    """Name the SQLite planner: the plan-shape tests of the sql engine
    (tests/test_sql_backend.py) assert on its ``EXPLAIN QUERY PLAN``."""
    return f"sqlite {sqlite3.sqlite_version}"
