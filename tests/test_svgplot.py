import tracemalloc

import numpy as np

from biased_sgd.svgplot import _FLOOR, _MAX_POINTS, panel_grid

N = 200_001  # a race curve read back from the dense history rows


def _series(n):
    """(x, y) of a long curve: int iterations, gaps that cross the floor,
    y a strided column as the race curve is."""
    t = np.arange(n)
    hist = np.empty((n, 2))
    hist[:, 0] = 10.0 * np.exp(-t / 5000.0) - 1e-3
    return t, hist[:, 0]


def test_a_long_series_is_drawn_from_the_points_it_keeps():
    # the figure depends only on the points kept: the same bytes whether
    # the series comes whole or as those points, already floats and clamped
    x, y = _series(N)
    idx = np.unique(np.linspace(0, N - 1, _MAX_POINTS).astype(int))

    def kept(y):
        return x[idx].astype(float), np.maximum(y[idx], _FLOOR)
    whole = panel_grid([("p", [("a", x, y), ("b", x, 2.0 * y)])])
    thinned = panel_grid([("p", [("a", *kept(y)), ("b", *kept(2.0 * y))])])
    assert whole == thinned


def test_drawing_a_long_series_copies_only_the_points_it_keeps():
    # two panels of three 200,001-point series: a float copy of one whole
    # series, x or y, would take 1.6 MB
    series = [(f"s{i}", *_series(N)) for i in range(3)]
    panels = [("a", series), ("b", series)]
    panel_grid(panels)  # warm-up
    tracemalloc.start()
    try:
        panel_grid(panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * 8 / 2, peak
