import numpy as np
import pytest
from hypothesis import given

from sgmstereo import PgmError, load_disparity, load_pgm, save_disparity, save_pgm

from conftest import gray_images


def test_load_basic_header():
    data = b"P5 2 2 255 " + bytes([0, 64, 128, 255])
    img = load_pgm(data)
    assert img.shape == (2, 2)
    assert img.tolist() == [[0, 64], [128, 255]]


def test_load_newline_header_with_comments():
    data = b"P5\n# made by a camera\n3 #width\n2\n# maxval next\n255\n" + bytes(range(6))
    img = load_pgm(data)
    assert img.shape == (2, 3)
    assert img.flatten().tolist() == list(range(6))


def test_load_rejects_wide_maxval():
    with pytest.raises(PgmError, match="maxval"):
        load_pgm(b"P5 2 2 65535 " + bytes(8))


def test_load_rejects_samples_above_maxval():
    # PGM puts every sample at or below maxval; 200 under maxval 15 used to load
    with pytest.raises(PgmError, match="sample 200 at row 0, column 1 exceeds maxval 15"):
        load_pgm(b"P5 2 1 15 " + bytes([0, 200]))
    assert load_pgm(b"P5 2 1 15 " + bytes([0, 15])).tolist() == [[0, 15]]


def test_load_rejects_color_magic():
    with pytest.raises(PgmError, match="magic"):
        load_pgm(b"P6 2 2 255 " + bytes(12))


def test_load_rejects_truncated_raster():
    with pytest.raises(PgmError, match="truncated pixel data"):
        load_pgm(b"P5 4 4 255 " + bytes(7))


def test_load_rejects_garbage_header():
    with pytest.raises(PgmError):
        load_pgm(b"P5 x 2 255 " + bytes(4))
    with pytest.raises(PgmError):
        load_pgm(b"P5 2 2")


def test_load_ignores_trailing_bytes():
    data = b"P5 1 2 255 " + bytes([7, 9]) + b"junk after raster"
    assert load_pgm(data).flatten().tolist() == [7, 9]


def test_save_single_pixel_exact_bytes():
    img = np.array([[42]], np.uint8)
    assert save_pgm(img) == b"P5\n1 1\n255\n" + bytes([42])


@given(gray_images(max_width=16, max_height=16))
def test_round_trip_is_identity(img):
    again = load_pgm(save_pgm(img))
    assert again.shape == img.shape
    assert (again == img).all()


def test_round_trip_of_spec_example_bytes():
    data = b"P5 2 2 255 " + bytes([0, 64, 128, 255])
    img = load_pgm(data)
    assert (load_pgm(save_pgm(img)) == img).all()


def test_save_disparity_identity_encoding():
    disp = np.zeros((3, 4), np.int32)
    disp[1, 2] = 127
    payload = save_disparity(disp)
    again = load_disparity(payload)
    assert again[1, 2] == 127
    assert (again == disp).all()
    # the byte at the raster offset is the disparity itself
    raster = payload.split(b"\n255\n", 1)[1]
    assert raster[1 * 4 + 2] == 127


def test_save_disparity_rejects_out_of_range():
    with pytest.raises(ValueError, match="8-bit"):
        save_disparity(np.array([[256]], np.int32))
    with pytest.raises(ValueError, match="8-bit"):
        save_disparity(np.array([[-1]], np.int32))


def test_save_rejects_non_uint8_image():
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2), np.int32))
