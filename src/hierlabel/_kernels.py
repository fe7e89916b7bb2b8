# numba kernels were removed; the module is kept for pipebench/harness.py,
# which reads this flag, until ROADMAP's run-telemetry item
USING_NUMBA = False
