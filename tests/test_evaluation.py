import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgmstereo import CameraGeometry, ConfigError, SgmParams, bad_pixel_rate, disparity_to_depth, metrics_csv


def test_perfect_estimate_scores_one():
    gt = np.arange(12, dtype=np.int32).reshape(3, 4)
    res = bad_pixel_rate(gt.copy(), gt, threshold=3)
    assert res.accuracy == 1.0
    assert res.bad == 0
    assert res.total == 12


def test_everything_off_by_threshold_plus_one_scores_zero():
    gt = np.zeros((4, 4), np.int32)
    est = gt + 4
    res = bad_pixel_rate(est, gt, threshold=3)
    assert res.accuracy == 0.0
    assert res.bad == 16


def test_half_bad_scores_half():
    gt = np.zeros((2, 10), np.int32)
    est = gt.copy()
    est[1] = 5  # |diff| = 5 > 3
    res = bad_pixel_rate(est, gt, threshold=3)
    assert res.accuracy == 0.5
    assert res.total == 20 and res.bad == 10


def test_errors_at_threshold_are_not_bad():
    gt = np.zeros((1, 4), np.int32)
    res = bad_pixel_rate(gt + 3, gt, threshold=3)
    assert res.bad == 0


def test_mask_selects_pixels():
    gt = np.zeros((2, 2), np.int32)
    est = np.array([[9, 0], [0, 9]], np.int32)
    mask = np.array([[0, 1], [1, 0]], np.uint8)
    res = bad_pixel_rate(est, gt, mask=mask, threshold=3)
    assert res.total == 2 and res.bad == 0
    with pytest.raises(ValueError, match="no pixels"):
        bad_pixel_rate(est, gt, mask=np.zeros_like(mask))


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_symmetric_in_arguments(seed, threshold):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 32, (5, 7), np.int32)
    b = rng.integers(0, 32, (5, 7), np.int32)
    assert bad_pixel_rate(a, b, threshold=threshold) == bad_pixel_rate(b, a, threshold=threshold)


@given(st.integers(0, 2**32 - 1))
def test_raising_threshold_never_lowers_accuracy(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 32, (6, 6), np.int32)
    b = rng.integers(0, 32, (6, 6), np.int32)
    accs = [bad_pixel_rate(a, b, threshold=t).accuracy for t in range(0, 8)]
    assert all(lo <= hi for lo, hi in zip(accs, accs[1:]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        bad_pixel_rate(np.zeros((2, 2), np.int32), np.zeros((2, 3), np.int32))


@pytest.mark.parametrize(
    ("name", "value"),
    [("est", np.zeros(3, np.int32)), ("est", np.zeros((2, 2))), ("est", np.zeros((2, 2), bool)),
     ("gt", np.zeros(3, np.int32)), ("gt", np.zeros((2, 2))), ("gt", np.zeros((2, 2), bool))],
    ids=["est-1d", "est-float", "est-bool", "gt-1d", "gt-float", "gt-bool"],
)
def test_maps_must_be_2d_integer_arrays(name, value):
    # 1-d, float and bool maps used to be scored like disparity maps
    maps = {"est": np.zeros((2, 2), np.int32), "gt": np.zeros((2, 2), np.int32), name: value}
    with pytest.raises(ConfigError, match=f"^{name} must be a non-empty 2-d integer array"):
        bad_pixel_rate(maps["est"], maps["gt"])


@pytest.mark.parametrize("threshold", [True, 1.5, -1], ids=["bool", "float", "negative"])
def test_threshold_must_be_an_integer_at_least_zero(threshold):
    # threshold=True used to pass and reach the result as True
    gt = np.zeros((2, 2), np.int32)
    with pytest.raises(ConfigError, match="^threshold must be an integer"):
        bad_pixel_rate(gt, gt, threshold=threshold)
    assert bad_pixel_rate(gt, gt, threshold=np.int64(2)).threshold == 2


def test_depth_examples():
    assert disparity_to_depth(1, CameraGeometry(focal=1, baseline=1)) == 1.0
    assert disparity_to_depth(63, CameraGeometry(focal=700, baseline=0.54)) == pytest.approx(6.0)
    with pytest.raises(ValueError, match="positive"):
        disparity_to_depth(0, CameraGeometry(focal=700, baseline=0.54))
    assert disparity_to_depth(np.float32(2), CameraGeometry(focal=1, baseline=1)) == 0.5


@pytest.mark.parametrize("disparity", [np.array([1.0, 2.0]), np.array(2.0), -1.5, float("nan"), True, "2"],
                         ids=["array", "0-d-array", "negative", "nan", "bool", "str"])
def test_depth_rejects_what_is_not_one_positive_number(disparity):
    # an array used to raise numpy's "truth value of an array is ambiguous"
    with pytest.raises(ConfigError, match="^disparity must be a positive number"):
        disparity_to_depth(disparity, CameraGeometry(focal=700, baseline=0.54))


@given(st.integers(1, 254))
def test_depth_strictly_decreasing_in_disparity(d):
    geom = CameraGeometry(focal=700, baseline=0.54)
    assert disparity_to_depth(d, geom) > disparity_to_depth(d + 1, geom)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CameraGeometry(focal=0, baseline=1)
    with pytest.raises(ValueError):
        CameraGeometry(focal=1, baseline=-2)


def test_metrics_csv_line():
    params = SgmParams(disparities=64, p1=7, p2=84, paths=4)
    gt = np.zeros((2, 10), np.int32)
    est = gt.copy()
    est[1] = 5
    res = bad_pixel_rate(est, gt, threshold=3)
    line = metrics_csv(res, params, width=10, height=2)
    assert line == "10,2,64,4,7,84,3,20,10,0.500000"
