import re

import numpy as np
import pytest

from sgmstereo import (
    ConfigError,
    SgmParams,
    aggregate_all,
    aggregate_path,
    bad_pixel_rate,
    census_transform,
    compute_disparity,
    dump_cost_volume,
    matching_cost,
    median_filter_3x3,
    save_disparity,
    save_pgm,
    select_disparity,
    shifted_pair,
)
from sgmstereo.params import as_array, as_int
from sgmstereo.pipeline import Executor

_PARAMS = SgmParams(disparities=4, p1=1, p2=10, paths=2)
_IMAGE = np.zeros((6, 5), np.uint8)
_CENSUS = np.zeros((6, 5), np.uint32)
_VOLUME = np.zeros((6, 5, 4), np.uint8)
_MAP = np.zeros((6, 5), np.int32)

# every public array entry: the call with the argument under test in place,
# the name its errors give that argument, and a valid value for it
_ENTRIES = {
    "census_transform": (census_transform, "image", _IMAGE),
    "matching_cost-base": (lambda a: matching_cost(a, _CENSUS, 4), "base", _CENSUS),
    "matching_cost-match": (lambda a: matching_cost(_CENSUS, a, 4), "match", _CENSUS),
    "dump_cost_volume": (dump_cost_volume, "volume", _VOLUME),
    "aggregate_path": (lambda a: aggregate_path(a, (1, 0), _PARAMS), "mc", _VOLUME),
    "aggregate_all": (lambda a: aggregate_all(a, _PARAMS), "mc", _VOLUME),
    "select_disparity": (lambda a: select_disparity([_VOLUME, a], _PARAMS), "volumes[1]", _VOLUME),
    "median_filter_3x3": (median_filter_3x3, "disparity", _MAP),
    "save_pgm": (save_pgm, "image", _IMAGE),
    "save_disparity": (save_disparity, "disparity", _MAP),
    "Executor-left": (lambda a: Executor(a, _IMAGE, _PARAMS), "left", _IMAGE),
    "Executor-right": (lambda a: Executor(_IMAGE, a, _PARAMS), "right", _IMAGE),
    "compute_disparity": (lambda a: compute_disparity(a, _IMAGE, _PARAMS), "left", _IMAGE),
    "bad_pixel_rate-est": (lambda a: bad_pixel_rate(a, _MAP), "est", _MAP),
    "bad_pixel_rate-gt": (lambda a: bad_pixel_rate(_MAP, a), "gt", _MAP),
}

_BAD = {
    "rank": lambda good: good[0],
    "empty": lambda good: good[:0],
    "dtype": lambda good: good.astype(np.float64),
}


@pytest.mark.parametrize("bad", list(_BAD))
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_public_array_entries_name_the_bad_argument(entry, bad):
    call, name, good = _ENTRIES[entry]
    call(good)  # the valid value passes
    value = _BAD[bad](good)
    with pytest.raises(ConfigError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} must be a non-empty {good.ndim}-d "), message
    assert f"got shape {value.shape}, dtype {value.dtype}" in message


# every check of one argument's shape against another's: the call with a
# narrower array in place, its name and the name of the array it must match
_MATCHED = {
    "matching_cost": (lambda a: matching_cost(_CENSUS, a, 4), "match", "base", _CENSUS),
    "Executor": (lambda a: Executor(_IMAGE, a, _PARAMS), "right", "left", _IMAGE),
    "select_disparity": (lambda a: select_disparity([_VOLUME, a]), "volumes[1]", "volumes[0]", _VOLUME),
    "bad_pixel_rate-gt": (lambda a: bad_pixel_rate(_MAP, a), "gt", "est", _MAP),
    "bad_pixel_rate-mask": (lambda a: bad_pixel_rate(_MAP, _MAP, mask=a), "mask", "est", _MAP + 1),
}


@pytest.mark.parametrize("entry", list(_MATCHED))
def test_shape_mismatches_name_both_arguments(entry):
    call, name, other, good = _MATCHED[entry]
    call(good)
    message = f"dimension mismatch: {name} shape {good[:, :4].shape} vs {other} shape {good.shape}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(good[:, :4])


def test_as_array_takes_array_likes_of_its_rank_and_dtype():
    assert as_array("x", [[1, 2]], 2, np.integer).tolist() == [[1, 2]]
    assert as_array("x", _IMAGE, 2, np.uint8) is _IMAGE


@pytest.mark.parametrize("value", [np.int8(3), [[-1.5]], [["a"]], [[True]], np.zeros((1, 0), int), None,
                                   [[1, 2], [3]], [[[1], [2]], [[3], [4, 5]]]],
                         ids=["scalar", "float", "str", "bool", "empty", "none", "ragged", "ragged-deep"])
def test_as_array_rejects_other_values_with_a_config_error(value):
    with pytest.raises(ConfigError, match="^x must be a non-empty 2-d integer array, got shape"):
        as_array("x", value, 2, np.integer)
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("disparities", [4.0, True, "4", None], ids=["float", "bool", "str", "none"])
def test_matching_cost_disparities_must_be_an_integer(disparities):
    # 4.0 and True used to escape as numpy's bare TypeError
    with pytest.raises(ConfigError, match="disparities must be an integer"):
        matching_cost(_CENSUS, _CENSUS, disparities)
    assert matching_cost(_CENSUS, _CENSUS, np.int64(4)).shape == (6, 5, 4)


def test_a_ragged_list_names_its_argument():
    # numpy's own "inhomogeneous shape" ValueError used to escape unnamed
    with pytest.raises(ConfigError, match=r"^disparity must be a non-empty 2-d integer array, got shape \(2,\)"):
        median_filter_3x3([[1, 2, 3], [4, 5]])


@pytest.mark.parametrize(
    ("lo", "hi", "inside", "outside", "bounds"),
    [(1, None, [1, 9], [0, -3], ">= 1"), (1, 256, [1, 256], [0, 257], r"in \[1, 256\]"), (None, 4, [4], [5], "<= 4")],
    ids=["lo", "lo-and-hi", "hi"],
)
def test_as_int_takes_integers_in_range_only(lo, hi, inside, outside, bounds):
    for value in inside:
        assert as_int("n", np.int64(value), lo, hi) == value
    for value in outside:
        with pytest.raises(ConfigError, match=f"^n must be an integer {bounds}, got {value}$"):
            as_int("n", value, lo, hi)


def test_shifted_pair_shift_must_be_an_integer_at_least_zero():
    with pytest.raises(ConfigError, match="^shift must be an integer >= 0, got -1$"):
        shifted_pair(8, 4, -1)
    with pytest.raises(ConfigError, match="^shift must be an integer"):
        shifted_pair(8, 4, 1.0)
