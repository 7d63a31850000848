"""Work pool owned by the harness.

Method modules expose pure maps over independent window/subdomain states;
the harness executes them serially or on a thread pool.  Results are
assembled by index, so the outcome is independent of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def make_pmap(jobs=None):
    """Return an ordered map callable for ``jobs`` workers (None: serial)."""
    if jobs is None or jobs <= 1:
        return None  # solvers fall back to the builtin map

    def pmap(fn, items):
        items = list(items)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))

    return pmap
