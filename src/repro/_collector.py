"""Pausing Python's cyclic garbage collector for one distributed run.

A simulated run allocates a tuple per message and a list per inbox, and
none of them forms a reference cycle, yet every few hundred allocations
the collector walks the young generation, and now and then the whole
heap, without finding anything to free.  The runners of the distributed
algorithms (``compute_mst``, and through it ``prs``; ``ghs``; ``gkp``)
pause it for the whole run, including the local work between protocol
runs.  Reference counting still frees every acyclic object as soon as
it dies; a cycle made while the collector is paused (the traceback of an
aborted run) is freed by the first collection after the run.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def paused_collector() -> Iterator[None]:
    """Disable the cyclic collector inside the block, if it was enabled.

    The collector is re-enabled on every exit, a raise included, and
    only when this block disabled it: a caller that turned it off keeps
    it off, and a nested block changes nothing.  Usable as a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
