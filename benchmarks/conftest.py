"""Pytest bootstrap for ``benchmarks/``: makes ``benchmarks`` importable as
a root, so the ledger's self-tests can ``from ledger import …``
(``python -m pytest benchmarks/ledger/tests``)."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
