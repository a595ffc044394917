"""Benchmark library: the paper's four workloads and Table 2.

* :mod:`repro.bench.queries` — the workload definitions: document builders
  and query texts (IFP form and source-level ``fix``/``delta`` UDF form).
* :mod:`repro.bench.table2`  — regenerates the paper's Table 2 through
  :class:`repro.Session` (also installed as the ``repro-table2`` console
  script).
"""

from repro.bench.queries import WORKLOADS, Workload, get_workload

__all__ = ["WORKLOADS", "Workload", "get_workload"]
