# numba kernels were removed; the pipeline benchmark still records this flag
USING_NUMBA = False
