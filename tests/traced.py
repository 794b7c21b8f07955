"""The peak of traced allocations during one call, for the tests that bound scratch memory."""

import tracemalloc


def traced(fn, *args):
    """(the result of ``fn(*args)``, the peak bytes that tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
