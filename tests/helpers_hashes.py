"""Hashes of run outputs, for the tests that pin output bytes."""

import hashlib
import os


def output_hashes(csv_path):
    """sha256 of a run's CSV and, where written, its `.functionals.json`,
    keyed by file name."""
    hashes = {}
    for path in (csv_path, csv_path.with_suffix(".functionals.json")):
        if path.exists():
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def mismatch_note():
    """Assertion message of a hash mismatch, naming the BLAS thread settings
    in force: they are known to move the bytes of `lam: 0` fits."""
    threads = ", ".join(
        f"{var}={os.environ.get(var, 'unset')}"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return (
        f"output bytes differ from the recorded hashes ({threads}); "
        "until lam: 0 fit bits stop depending on the BLAS thread count, "
        "they match only at the count they were recorded at"
    )
