import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from support import eqck_header, with_eqck_header

from rotprox import (
    ChecksumError,
    FourierBasis,
    GroupConv,
    Lift,
    NetworkSpec,
    OrientationPool,
    ReLU,
    forward,
    init_network,
    load_checkpoint,
    make_audit_net,
    make_denoiser_net,
    parameters,
    save_checkpoint,
    train_denoiser,
    SGD,
)
from rotprox.synthetic import synthetic_image


# Written by rotprox 0.1.0 before layers owned their EQCK headers:
# save(init_network(make_denoiser_net(t=2, channels=2, p=3, cutoff=1), 0), ...)
FIXTURE = Path(__file__).parent / "data" / "denoiser_t2_c2_p3_seed0.eqck"


def _without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


# Header edits that load() must reject with a ValueError; most once escaped as KeyError or TypeError.
MALFORMED_HEADERS = {
    "lift_without_cutoff": lambda h: dict(h, layers=[_without(h["layers"][0], "cutoff")] + h["layers"][1:]),
    "group_conv_without_group_order": lambda h: dict(
        h, layers=h["layers"][:3] + [_without(h["layers"][3], "group_order")] + h["layers"][4:]
    ),
    "layers_as_dict": lambda h: dict(h, layers={"0": h["layers"][0]}),
    "layers_as_int": lambda h: dict(h, layers=12),
    "missing_group_order": lambda h: _without(h, "group_order"),
    "group_order_mismatch": lambda h: dict(h, group_order=2),  # _fresh_net's Lift has order 4
    "header_is_list": lambda h: [h],
    "channels_as_string": lambda h: dict(
        h, layers=[dict(l, channels="2") if l["kind"] == "bias" else l for l in h["layers"]]
    ),
    "layer_is_string": lambda h: dict(h, layers=["lift"] + h["layers"][1:]),
    "kind_is_list": lambda h: dict(h, layers=[dict(h["layers"][0], kind=["lift"])] + h["layers"][1:]),
    "negative_channels": lambda h: dict(
        h, layers=[dict(l, channels=-1) if l["kind"] == "bias" else l for l in h["layers"]]
    ),
    "residual_to_network_input": lambda h: dict(
        h, layers=[dict(l, skip=-1) if l["kind"] == "residual_add" else l for l in h["layers"]]
    ),
}


def _fresh_net(seed=90):
    return init_network(make_denoiser_net(4, channels=2, p=3, cutoff=1), seed=seed)


class TestRoundtrip:
    def test_forward_outputs_bit_exact(self, tmp_path):
        net = _fresh_net()
        path = save_checkpoint(net, tmp_path / "net.eqck")
        loaded = load_checkpoint(path)
        x = synthetic_image(12, 0)
        np.testing.assert_array_equal(forward(loaded, x).data, forward(net, x).data)

    def test_all_parameters_equal(self, tmp_path):
        net = _fresh_net(91)
        loaded = load_checkpoint(save_checkpoint(net, tmp_path / "net.eqck"))
        ours = parameters(net)
        theirs = parameters(loaded)
        assert [(i, n) for i, n, _ in ours] == [(i, n) for i, n, _ in theirs]
        for (_, _, a), (_, _, b) in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)

    def test_rewrite_is_byte_identical(self, tmp_path):
        net = _fresh_net(92)
        p1 = save_checkpoint(net, tmp_path / "a.eqck")
        p2 = save_checkpoint(load_checkpoint(p1), tmp_path / "b.eqck")
        assert p1.read_bytes() == p2.read_bytes()

    def test_audit_net_roundtrip(self, tmp_path):
        net = make_audit_net(8, channels=3, seed=93)
        loaded = load_checkpoint(save_checkpoint(net, tmp_path / "net.eqck"))
        x = synthetic_image(16, 1, mesh=1 / 3)
        np.testing.assert_array_equal(forward(loaded, x).data, forward(net, x).data)
        assert loaded.group_order == 8

    def test_numpy_integer_fields_round_trip(self, tmp_path):
        # the layers keep Python ints, so the header holds integers that load accepts
        basis = FourierBasis(np.int64(3), np.int64(1))
        rng = np.random.default_rng(96)
        net = NetworkSpec(
            [
                Lift(np.int64(1), np.int64(2), np.int64(4), basis, rng.standard_normal((2, 1, basis.size))),
                ReLU(),
                GroupConv(np.int64(2), np.int64(1), basis, rng.standard_normal((1, 2, 4, basis.size))),
                OrientationPool(),
            ]
        )
        loaded = load_checkpoint(save_checkpoint(net, tmp_path / "net.eqck"))
        x = synthetic_image(10, 5)
        assert forward(loaded, x).data.tobytes() == forward(net, x).data.tobytes()

    def test_loaded_net_is_trainable(self, tmp_path):
        loaded = load_checkpoint(save_checkpoint(_fresh_net(94), tmp_path / "net.eqck"))
        clean = synthetic_image(10, 2)
        noisy = synthetic_image(10, 3)
        _, trace = train_denoiser(loaded, [(clean, noisy)], SGD(1e-3), 2)
        assert len(trace) == 3


class TestFormatStability:
    def test_fixture_rewrite_is_byte_identical(self, tmp_path):
        loaded = load_checkpoint(FIXTURE)
        assert save_checkpoint(loaded, tmp_path / "again.eqck").read_bytes() == FIXTURE.read_bytes()

    def test_fixture_forward_matches_fresh_net(self):
        fresh = init_network(make_denoiser_net(t=2, channels=2, p=3, cutoff=1), 0)
        x = synthetic_image(16, 4)
        out = forward(load_checkpoint(FIXTURE), x).data
        assert np.any(out != 0.0)
        assert out.tobytes() == forward(fresh, x).data.tobytes()


class TestCorruption:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_with_valid_crc(self, tmp_path, case):
        blob = save_checkpoint(_fresh_net(89), tmp_path / "net.eqck").read_bytes()
        bad = tmp_path / f"{case}.eqck"
        bad.write_bytes(with_eqck_header(blob, MALFORMED_HEADERS[case](eqck_header(blob))))
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    def test_bool_group_order_of_order_one_net(self, tmp_path):
        # true == 1, so only the type check tells this header from a valid t=1 one
        net = init_network(make_denoiser_net(1, channels=2, p=3, cutoff=1), seed=88)
        blob = save_checkpoint(net, tmp_path / "net.eqck").read_bytes()
        bad = tmp_path / "bool.eqck"
        bad.write_bytes(with_eqck_header(blob, dict(eqck_header(blob), group_order=True)))
        assert load_checkpoint(tmp_path / "net.eqck").group_order == 1
        with pytest.raises(ValueError, match="group order"):
            load_checkpoint(bad)

    def test_single_byte_flip_fails_crc(self, tmp_path):
        path = save_checkpoint(_fresh_net(95), tmp_path / "net.eqck")
        blob = bytearray(path.read_bytes())
        for pos in (7, len(blob) // 2, len(blob) - 8):
            tampered = bytearray(blob)
            tampered[pos] ^= 0x20
            bad = tmp_path / f"bad_{pos}.eqck"
            bad.write_bytes(bytes(tampered))
            with pytest.raises(ChecksumError, match="CRC"):
                load_checkpoint(bad)

    def test_truncation_rejected(self, tmp_path):
        path = save_checkpoint(_fresh_net(96), tmp_path / "net.eqck")
        blob = path.read_bytes()
        for cut in (3, 40, len(blob) - 5):
            bad = tmp_path / f"cut_{cut}.eqck"
            bad.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(bad)

    def test_bad_magic_with_valid_crc(self, tmp_path):
        path = save_checkpoint(_fresh_net(97), tmp_path / "net.eqck")
        blob = bytearray(path.read_bytes())[:-4]
        blob[:4] = b"NOPE"
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        bad = tmp_path / "magic.eqck"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)

    def test_wrong_version_with_valid_crc(self, tmp_path):
        path = save_checkpoint(_fresh_net(98), tmp_path / "net.eqck")
        blob = bytearray(path.read_bytes())[:-4]
        blob[4:8] = struct.pack("<I", 9)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        bad = tmp_path / "version.eqck"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad)

    def test_leftover_payload_rejected(self, tmp_path):
        path = save_checkpoint(_fresh_net(99), tmp_path / "net.eqck")
        blob = bytearray(path.read_bytes())[:-4]
        blob += struct.pack("<d", 1.5)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        bad = tmp_path / "extra.eqck"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unread"):
            load_checkpoint(bad)
