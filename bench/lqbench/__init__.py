"""Benchmark harness for the liouq studies.

The harness drives each study through the public API (``load_scenario``,
``studies.run_*_study``, ``studies.emit_outputs``), checks the emitted
files against payloads recorded from an earlier commit, and reports
end-to-end and per-layer metrics.  Entry point: ``bench/run.py``.
"""
