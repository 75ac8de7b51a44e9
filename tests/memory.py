"""Peak traced memory of one call: a deterministic guard on working memory."""

import tracemalloc


def traced_peak_mb(fn, *args, **kwargs):
    """(fn's result, the peak of the memory it allocated while it ran, MB),
    as tracemalloc counts it (numpy reports its array buffers there)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - base) / 1e6
