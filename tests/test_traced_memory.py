import tracemalloc

from traced_memory import peak_bytes


def test_the_peak_counts_what_the_call_allocates():
    _, peak = peak_bytes(lambda: bytearray(4 << 20))
    assert 4 << 20 <= peak < 5 << 20, peak


def test_memory_traced_before_the_call_does_not_count():
    started = not tracemalloc.is_tracing()  # on already under PYTHONTRACEMALLOC
    if started:
        tracemalloc.start()
    try:
        held = bytearray(4 << 20)
        _, peak = peak_bytes(lambda: bytearray(8 << 10))
        assert peak < 1 << 20, peak
        assert tracemalloc.is_tracing()  # the outer trace is still on
        del held
    finally:
        if started:
            tracemalloc.stop()
