"""Interpreter start-up hook for the benchmark's traced run.

The traced run puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``.  Python imports ``sitecustomize`` in every
interpreter it starts, so the server process and each spawned pre-fork
worker install the span wrappers of :mod:`perfbench_trace` before any
serving code runs.  Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
