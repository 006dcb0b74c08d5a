"""EPC tag identifiers with a checksum.

Raw readings carry EPC strings, not integer tag ids: decoding and
validating them is the Anomaly Filtering layer's job ("removes spurious
readings and readings that contain truncated ids").  The encoding is a
fixed-width decimal serial plus a two-digit checksum, so truncation and
corruption are detectable.
"""

from __future__ import annotations

EPC_PREFIX = "EPC"
_SERIAL_WIDTH = 10
_CHECK_WIDTH = 2
EPC_LENGTH = len(EPC_PREFIX) + _SERIAL_WIDTH + _CHECK_WIDTH


def _checksum(serial: str) -> int:
    """A tiny positional checksum (detects truncation and digit noise)."""
    total = 0
    for position, digit in enumerate(serial, start=1):
        total += position * int(digit)
    return total % 97


def encode_epc(tag_id: int) -> str:
    """Encode an integer tag id as an EPC string."""
    if tag_id < 0 or tag_id >= 10 ** _SERIAL_WIDTH:
        raise ValueError(f"tag id {tag_id} out of EPC serial range")
    serial = f"{tag_id:0{_SERIAL_WIDTH}d}"
    return f"{EPC_PREFIX}{serial}{_checksum(serial):0{_CHECK_WIDTH}d}"


def parse_epc(epc: str) -> int | None:
    """The tag id *epc* encodes, or None when it is malformed or its
    checksum fails — one validation pass for callers that need both
    answers."""
    if len(epc) != EPC_LENGTH or not epc.startswith(EPC_PREFIX):
        return None
    serial = epc[len(EPC_PREFIX):len(EPC_PREFIX) + _SERIAL_WIDTH]
    check = epc[len(EPC_PREFIX) + _SERIAL_WIDTH:]
    if not (serial.isdigit() and check.isdigit()):
        return None
    if _checksum(serial) != int(check):
        return None
    return int(serial)


def is_valid_epc(epc: str) -> bool:
    """True when *epc* is well-formed and its checksum verifies."""
    return parse_epc(epc) is not None


def decode_epc(epc: str) -> int:
    """Decode a validated EPC back to its tag id."""
    tag_id = parse_epc(epc)
    if tag_id is None:
        raise ValueError(f"invalid EPC {epc!r}")
    return tag_id
