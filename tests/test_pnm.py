import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet.errors import PnmError
from dnet.pnm import read_pnm, write_mask_pgm, write_ppm, write_prob_pgm


def test_mask_round_trip_bit_exact(tmp_path, rng):
    mask = (rng.uniform(size=(13, 9)) > 0.5).astype(np.float64)
    path = tmp_path / "m.pgm"
    write_mask_pgm(path, mask)
    again = read_pnm(path)
    assert np.array_equal(again, mask)
    first_bytes = path.read_bytes()
    write_mask_pgm(path, again)
    assert path.read_bytes() == first_bytes


def test_byte_value_example(tmp_path):
    payload = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    path = tmp_path / "v.pgm"
    path.write_bytes(payload)
    values = read_pnm(path)
    assert values.ravel().tolist() == pytest.approx(
        [0.0, 1.0, 128 / 255, 64 / 255], abs=1e-15
    )


def test_prob_quantization_bound(tmp_path, rng):
    probs = rng.uniform(size=(7, 11))
    path = tmp_path / "p.pgm"
    write_prob_pgm(path, probs)
    again = read_pnm(path)
    assert np.abs(again - probs).max() <= 1.0 / 131070


def test_prob_file_round_trip_stable(tmp_path, rng):
    probs = rng.uniform(size=(5, 5))
    path = tmp_path / "p.pgm"
    write_prob_pgm(path, probs)
    first = path.read_bytes()
    write_prob_pgm(path, read_pnm(path))
    assert path.read_bytes() == first


def test_ppm_round_trip(tmp_path, rng):
    img = np.round(rng.uniform(size=(6, 4, 3)) * 255) / 255
    path = tmp_path / "i.ppm"
    write_ppm(path, img)
    again = read_pnm(path)
    assert again.shape == (6, 4, 3)
    assert np.abs(again - img).max() < 1e-12


def test_header_comments_and_whitespace(tmp_path):
    payload = b"P5 # gray\n# a comment line\n 3\t1 \n255\n" + bytes([1, 2, 3])
    path = tmp_path / "c.pgm"
    path.write_bytes(payload)
    assert read_pnm(path).shape == (1, 3)


def test_unsupported_maxval_rejected(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n1 1\n1023\n" + bytes(6))
    with pytest.raises(PnmError):
        read_pnm(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PnmError):
        read_pnm(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(9))
    with pytest.raises(PnmError):
        read_pnm(path)


def test_not_pnm_rejected(tmp_path):
    path = tmp_path / "nope.pgm"
    path.write_bytes(b"PNG rubbish")
    with pytest.raises(PnmError):
        read_pnm(path)


def test_out_of_range_values_rejected(tmp_path):
    with pytest.raises(PnmError):
        write_prob_pgm(tmp_path / "p.pgm", np.array([[1.5]]))
    with pytest.raises(PnmError):
        write_ppm(tmp_path / "i.ppm", -np.ones((2, 2, 3)))


WRITERS = [
    (write_mask_pgm, (2, 3)),
    (write_prob_pgm, (2, 3)),
    (write_ppm, (2, 3, 3)),
]


@pytest.mark.parametrize("writer, shape", WRITERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(writer, shape, bad, tmp_path):
    # NaN compares False with both range bounds, so it used to pass the
    # range check and be written as 0 ("not vessel").
    values = np.full(shape, 0.5)
    values.flat[1] = bad
    path = tmp_path / "out.pnm"
    with pytest.raises(PnmError, match="finite") as err:
        writer(path, values)
    assert str(path) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("writer, shape", WRITERS)
def test_writer_errors_name_the_path(writer, shape, tmp_path):
    path = tmp_path / "out.pnm"
    with pytest.raises(PnmError) as err:
        writer(path, np.zeros((2, 3, 3, 1)))  # wrong rank for every writer
    assert str(path) in str(err.value)
    if writer is not write_mask_pgm:
        with pytest.raises(PnmError, match=r"\[0, 1\]") as err:
            writer(path, np.full(shape, 2.0))
        assert str(path) in str(err.value)
    assert not path.exists()


@settings(deadline=None, max_examples=25)
@given(h=st.integers(1, 16), w=st.integers(1, 16), seed=st.integers(0, 1000))
def test_random_mask_round_trips(h, w, seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pnm")
    mask = (np.random.default_rng(seed).uniform(size=(h, w)) > 0.3).astype(float)
    path = tmp / "m.pgm"
    write_mask_pgm(path, mask)
    assert np.array_equal(read_pnm(path), mask)
