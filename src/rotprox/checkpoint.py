"""Binary network checkpoints: EQCK magic, version, JSON-described layer chain,
float64 little-endian coefficient payload, trailing CRC32.

The header captures layer kinds, channel counts, filter size/cutoff (which fix
the basis frequencies), group order, and residual wiring; the payload carries
every trainable array in layer order. Round-trips reproduce forward outputs
bit-exactly, and any corrupted byte fails the CRC on load.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .layers import LAYER_KINDS, NetworkSpec, parameters

MAGIC = b"EQCK"
VERSION = 1


class ChecksumError(ValueError):
    """Stored CRC32 does not match the file contents."""


def save(net: NetworkSpec, path) -> Path:
    """Serialize the network; returns the written path."""
    header = {
        "group_order": net.group_order,
        "layers": [layer.to_header() for layer in net.layers],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = bytearray()
    body += MAGIC
    body += struct.pack("<II", VERSION, len(header_bytes))
    body += header_bytes
    for _, _, arr in parameters(net):
        body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    out = Path(path)
    out.write_bytes(bytes(body))
    return out


def load(path) -> NetworkSpec:
    """Read a checkpoint back into a validated NetworkSpec."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 12:
        raise ValueError("checkpoint too short")
    stored = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored:
        raise ChecksumError("checkpoint CRC mismatch")
    if blob[:4] != MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header_end = 12 + header_len
    if header_end > len(blob) - 4:
        raise ValueError("checkpoint header truncated")
    header = json.loads(blob[12:header_end].decode("utf-8"))
    if not isinstance(header, dict) or not isinstance(header.get("layers"), list):
        raise ValueError("checkpoint header must be an object with a 'layers' list")
    payload = np.frombuffer(blob[header_end:-4], dtype="<f8")
    layers = []
    offset = 0
    for spec in header["layers"]:
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind!r} in checkpoint")
        layer, offset = LAYER_KINDS[kind].from_header(spec, payload, offset)
        layers.append(layer)
    if offset != payload.size:
        raise ValueError(f"checkpoint payload has {payload.size - offset} unread values")
    net = NetworkSpec(layers)
    order = header.get("group_order")
    if type(order) is not int or order != net.group_order:
        raise ValueError(f"checkpoint group order {order!r} does not match its Lift's order {net.group_order}")
    return net
