import pytest

from calibrate import NEAREST, REFERENCE_NS, kernel, reference_ns, scale


def test_reference_speed_leaves_times_unchanged():
    assert scale([7, 11], [REFERENCE_NS, REFERENCE_NS]) == [7, 11]


def test_each_item_is_scaled_by_the_median_of_its_nearest_references():
    n = 3 * NEAREST
    refs = [REFERENCE_NS] * NEAREST + [2 * REFERENCE_NS] * (2 * NEAREST)
    scaled = scale([100] * n, refs)
    # the window of the last fast item still holds a majority of fast references
    assert scaled[:NEAREST] == [100] * NEAREST
    assert scaled[NEAREST:] == [50] * (2 * NEAREST)


def test_windows_near_the_ends_are_shifted_not_shortened():
    refs = [REFERENCE_NS] * (NEAREST - 1) + [4 * REFERENCE_NS] * (NEAREST + 1)
    # item 0 uses the first NEAREST references: NEAREST - 1 fast, one slow
    assert scale([40] * len(refs), refs)[0] == 40
    # the last item uses the last NEAREST references, all slow
    assert scale([40] * len(refs), refs)[-1] == 10


def test_a_run_shorter_than_the_window_uses_every_reference():
    refs = [REFERENCE_NS, 2 * REFERENCE_NS, 4 * REFERENCE_NS]
    assert scale([60, 60, 60], refs) == [30, 30, 30]


def test_one_reference_per_item_is_required():
    with pytest.raises(ValueError):
        scale([1, 2], [REFERENCE_NS])


def test_kernel_is_deterministic_and_timed():
    assert kernel() == kernel()
    assert reference_ns() > 0
