"""Peak traced allocation of one call, for bounds on what a parser holds."""

import tracemalloc


def peak_bytes(call):
    """``call()``'s result and the peak of the memory it allocated while running.

    Inputs should come from files, not from in-memory streams: a StringIO
    made inside ``call`` would count as the call's own memory. Memory traced
    before the call, as under ``PYTHONTRACEMALLOC``, does not count, and a
    trace that was already on stays on.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
