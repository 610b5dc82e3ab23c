"""File formats: curve CSV out, spectrum and table CSV in, PTAG tag files, JSON summaries."""

import json
import os
import struct

import numpy as np

from .simkit import TagStream, _unsorted
from .spectral import Spectrum

PTAG_MAGIC = b"PTAG"
PTAG_VERSION = 1
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])
_HEADER_BYTES = 4 + struct.calcsize("<HQ")
# records per block of PTAG reads and writes; bounds the record buffer at 576 KiB
_BLOCK = 1 << 16


class FileFormatError(ValueError):
    pass


def load_spectrum(path) -> Spectrum:
    """A spectrum from the first two columns, nu_GHz and intensity, of a load_table CSV."""
    data = load_table(path)
    if data.shape[1] < 2:
        raise FileFormatError(f"{path}: need at least two columns")
    return Spectrum(data[:, 0], data[:, 1])


def save_curve(path, x, y, names=("x", "y"), comment: str = "") -> None:
    """UTF-8 CSV of x and y (one column, or one per column of a 2-D y) with an
    optional '#' comment header; names gives every column's name."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in np.column_stack((x, y)).astype(float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def load_table(path) -> np.ndarray:
    """Numeric rows of a comma-separated text file as a 2-D float array.

    Blank lines, '#' comments and rows that do not parse as numbers (a
    column header) are skipped; every numeric row must have the same width.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(p) for p in line.split(",")])
            except ValueError:
                continue  # header line
    if not rows:
        raise FileFormatError(f"{path}: no numeric rows")
    if len({len(r) for r in rows}) > 1:
        raise FileFormatError(f"{path}: rows differ in column count")
    return np.asarray(rows, dtype=float)


def write_ptag(path, stream: TagStream) -> None:
    """Write one tag stream to the PTAG binary format.

    Header: magic "PTAG", u16 version, u64 duration_ps (little endian), then
    9-byte records of u8 channel + u64 timestamp_ps, time ordered.  The
    records go out through one buffer of _BLOCK records.
    """
    tags = stream.tags
    buf = np.empty(min(tags.size, _BLOCK), dtype=_RECORD_DTYPE)
    buf["channel"] = stream.channel
    with open(path, "wb") as fh:
        fh.write(PTAG_MAGIC)
        fh.write(struct.pack("<HQ", PTAG_VERSION, stream.duration_ps))
        for start in range(0, tags.size, _BLOCK):
            records = buf[:min(_BLOCK, tags.size - start)]
            records["timestamp_ps"] = tags[start:start + _BLOCK]
            records.tofile(fh)


def read_ptag(path) -> TagStream:
    """Read a single-channel PTAG file back into its TagStream.

    A file without records gives an empty stream on channel 0 with the
    header's duration; records on more than one channel are an error.  The
    records come in through one buffer of _BLOCK records, straight into the
    int64 result.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if header[:4] != PTAG_MAGIC:
            raise FileFormatError(f"{path}: bad magic {header[:4]!r}")
        if len(header) < _HEADER_BYTES:
            raise FileFormatError(f"{path}: truncated header, {len(header)} of "
                                  f"{_HEADER_BYTES} bytes")
        version, duration_ps = struct.unpack("<HQ", header[4:])
        if version != PTAG_VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        n, partial = divmod(os.fstat(fh.fileno()).st_size - _HEADER_BYTES,
                            _RECORD_DTYPE.itemsize)
        if partial:
            raise FileFormatError(f"{path}: truncated record, {partial} trailing bytes")
        tags = np.empty(n, dtype=np.int64)
        buf = np.empty(min(n, _BLOCK), dtype=_RECORD_DTYPE)
        channel, unsorted = 0, False
        for start in range(0, n, _BLOCK):
            records = buf[:min(_BLOCK, n - start)]
            if fh.readinto(records) != records.nbytes:
                raise FileFormatError(f"{path}: file shrank while being read")
            if start == 0:
                channel = int(records["channel"][0])
            if np.any(records["channel"] != channel):
                raise FileFormatError(f"{path}: records on more than one channel")
            # u64 values of 2^63 and up come out negative in the int64 result
            tags[start:start + records.size] = records["timestamp_ps"]
            unsorted = unsorted or _unsorted(tags[max(start - 1, 0):start + records.size])
    if unsorted:
        tags.sort()
    # once sorted, a wrapped value would be the first
    if duration_ps >= 2**63 or (n and tags[0] < 0):
        raise FileFormatError(f"{path}: duration or timestamp of 2^63 ps or more")
    return TagStream(channel, tags, int(duration_ps))


def write_summary(path, data: dict) -> None:
    """Machine-parseable run summary, stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
