"""Parallel-in-time integration laboratory.

A library of time-parallel solvers for 1D model PDEs (heat,
advection-diffusion, Burgers', second-order wave) together with a CLI
harness that reproduces the desk-scale convergence experiments each solver
family is known for.
"""

import os

# set before numpy loads OpenBLAS, so its idle threads sleep instead of spinning
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
__version__ = "0.1.0"
