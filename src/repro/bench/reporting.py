"""Plain-text table rendering for benchmark output.

The benchmark modules print the same rows/series the paper's figures and
analysis report, so a run's output can be compared against the paper (and
against EXPERIMENTS.md) by eye.  The renderer itself is
:func:`repro.obs.report.format_table`, shared with ``repro doctor`` and
``repro top``; it is re-exported here for the benchmark modules.
"""

from __future__ import annotations

from repro.obs.report import format_table

__all__ = ["format_table"]
