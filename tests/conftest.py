import os

import numpy as np


def pytest_report_header(config):
    # the lam: 0 fit bytes depend on the BLAS thread count, so every log
    # names the setting it ran under
    threads = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return f"numpy {np.__version__}, {threads}, {os.cpu_count()} CPUs"
