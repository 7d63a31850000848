"""Parallel-in-time integration laboratory.

A library of time-parallel solvers for 1D model PDEs (heat,
advection-diffusion, Burgers', second-order wave) together with a CLI
harness that reproduces the desk-scale convergence experiments each solver
family is known for.
"""

import os

# set before numpy loads OpenBLAS: the solvers are serial, so BLAS keeps to one thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
__version__ = "0.1.0"
