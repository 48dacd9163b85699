import struct

import numpy as np
import pytest

from rotprox import read_eqt1, read_pgm, write_eqt1, write_pgm


class TestEqt1:
    def test_roundtrip_ranks(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in ((7,), (3, 5), (4, 4, 2), (2, 3, 4, 5)):
            arr = rng.standard_normal(shape)
            path = tmp_path / "t.eqt1"
            write_eqt1(path, arr)
            back = read_eqt1(path)
            assert back.shape == shape
            np.testing.assert_array_equal(back, arr)

    def test_golden_bytes(self, tmp_path):
        # magic, u32 rank, u32 dims, little-endian f64 payload, row major
        path = tmp_path / "t.eqt1"
        write_eqt1(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = b"EQT1" + struct.pack("<III", 2, 2, 2) + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        assert path.read_bytes() == expected

    def test_preserves_exact_float_bits(self, tmp_path):
        values = np.array([np.pi, -0.0, 1e-308, 1e308, 1 / 3])
        path = tmp_path / "t.eqt1"
        write_eqt1(path, values)
        back = read_eqt1(path)
        assert back.tobytes() == values.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.eqt1"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_eqt1(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.eqt1"
        write_eqt1(path, np.arange(6.0).reshape(2, 3))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_eqt1(path)

    def test_element_count_beyond_int64_rejected(self, tmp_path):
        # 65536**4 = 2**64 elements: a 64-bit count wraps to 0 and matches the empty payload
        path = tmp_path / "t.eqt1"
        path.write_bytes(b"EQT1" + struct.pack("<5I", 4, 65536, 65536, 65536, 65536))
        with pytest.raises(ValueError, match=f"payload holds 0 bytes, expected {8 * 2**64}"):
            read_eqt1(path)

    def test_truncated_dims_rejected(self, tmp_path):
        path = tmp_path / "t.eqt1"
        path.write_bytes(b"EQT1" + struct.pack("<I", 3) + struct.pack("<I", 2))
        with pytest.raises(ValueError, match="dims"):
            read_eqt1(path)


class TestPgm:
    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0.0, 1.0, size=(9, 13))
        path = tmp_path / "t.pgm"
        write_pgm(path, img)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        assert back.shape == (9, 13)
        # quantization to 16 bits costs at most half a level
        assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12

    def test_roundtrip_8bit(self, tmp_path):
        # the writer is 16-bit only; an 8-bit file comes from elsewhere, one byte per sample
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(range(0, 256, 17)))
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, np.linspace(0.0, 1.0, 16).reshape(4, 4))

    def test_grid_levels_are_exact(self, tmp_path):
        # values on the 16-bit quantization grid survive the roundtrip untouched
        img = np.array([[0.0, 1.0], [37 / 65535, 51400 / 65535]])
        path = tmp_path / "t.pgm"
        write_pgm(path, img)
        back, _ = read_pgm(path)
        np.testing.assert_allclose(back, img, atol=1e-15)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n3 2\n65535\n")
        assert len(blob) == len(b"P5\n3 2\n65535\n") + 12

    def test_big_endian_16bit_samples(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.array([[1.0]]))
        assert path.read_bytes().endswith(b"\xff\xff")
        write_pgm(path, np.array([[256 / 65535]]))
        assert path.read_bytes().endswith(b"\x01\x00")

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        payload = bytes([7, 8, 9, 10, 11, 12])
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_allclose(back * 255, np.array([[7, 8, 9], [10, 11, 12]]))

    def test_single_channel_3d_accepted(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.zeros((4, 4, 1)))
        back, _ = read_pgm(path)
        assert back.shape == (4, 4)

    def test_multichannel_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="grayscale"):
            write_pgm(tmp_path / "t.pgm", np.zeros((4, 4, 3)))

    def test_values_clip_to_range(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.array([[-0.5, 1.5]]))
        back, _ = read_pgm(path)
        np.testing.assert_allclose(back, np.array([[0.0, 1.0]]))

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        for maxval in (0, 70000):
            path.write_bytes(b"P5\n1 1\n%d\n\x00\x00" % maxval)
            with pytest.raises(ValueError, match="maxval"):
                read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_not_pgm_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="P5|binary"):
            read_pgm(path)
