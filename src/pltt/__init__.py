"""
Polarized light transport tensors.

Import each name from the module that defines it; the package itself
holds only ``__version__``:

- ``pltt.polarization``: Mueller/Stokes primitives;
- ``pltt.tensor``: transport tensors, contraction and probing;
- ``pltt.ellipsometry``: rotating-element capture and reconstruction;
- ``pltt.learning``: gradient-learned angle schedules;
- ``pltt.decomposition``: Lu-Chipman style polar decomposition;
- ``pltt.analysis``: PCA and descattering;
- ``pltt.scene``: JSON scenes and a synthetic Mueller ensemble;
- ``pltt.fileio`` and ``pltt.cli``: the PLTT v1 container and the batch CLI.
"""

import os

# Documented override: PLTT_NUM_THREADS caps BLAS thread pools, not the
# capture and reconstruct workers (one per CPU, ``tensor.WORKERS``). Must be
# applied before numpy loads, hence here at package import.
_threads = os.environ.get("PLTT_NUM_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
