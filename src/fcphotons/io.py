"""File formats: curve CSV out, spectrum and table CSV in, PTAG tag files, JSON summaries."""

import json
import os
import struct

import numpy as np

from .simkit import TagStream
from .spectral import Spectrum

PTAG_MAGIC = b"PTAG"
PTAG_VERSION = 1
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp_ps", "<u8")])
_HEADER_BYTES = 4 + struct.calcsize("<HQ")


class FileFormatError(ValueError):
    pass


def load_spectrum(path) -> Spectrum:
    """A spectrum from the first two columns, nu_GHz and intensity, of a load_table CSV."""
    data = load_table(path)
    if data.shape[1] < 2:
        raise FileFormatError(f"{path}: need at least two columns")
    return Spectrum(data[:, 0], data[:, 1])


def save_curve(path, x, y, names=("x", "y"), comment: str = "") -> None:
    """Two-column UTF-8 CSV with an optional '#' comment header."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(",".join(names[:2]) + "\n")
        for row in zip(np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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


def write_ptag(path, streams) -> None:
    """Write tag streams to the PTAG binary format.

    Header: magic "PTAG", u16 version, u64 duration_ps (little endian), then
    9-byte records of u8 channel + u64 timestamp_ps, time ordered.  The
    duration is the longest of the streams'.
    """
    if isinstance(streams, TagStream):
        streams = [streams]
    duration_ps = max((s.duration_ps for s in streams), default=0)
    records = np.empty(sum(s.tags.size for s in streams), dtype=_RECORD_DTYPE)
    pos = 0
    for s in streams:
        records["channel"][pos:pos + s.tags.size] = s.channel
        records["timestamp_ps"][pos:pos + s.tags.size] = s.tags
        pos += s.tags.size
    if len(streams) > 1:  # one stream is already sorted
        records = records[np.argsort(records["timestamp_ps"], kind="stable")]
    with open(path, "wb") as fh:
        fh.write(PTAG_MAGIC)
        fh.write(struct.pack("<HQ", PTAG_VERSION, duration_ps))
        records.tofile(fh)


def read_ptag(path) -> list[TagStream]:
    """Read a PTAG file back into one TagStream per channel present."""
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
        partial = (os.fstat(fh.fileno()).st_size - _HEADER_BYTES) % _RECORD_DTYPE.itemsize
        if partial:
            raise FileFormatError(f"{path}: truncated record, {partial} trailing bytes")
        records = np.fromfile(fh, dtype=_RECORD_DTYPE)
    # u64 values of 2^63 and up come out of astype(int64) negative
    all_tags = records["timestamp_ps"].astype(np.int64)
    if duration_ps >= 2**63 or (all_tags.size and all_tags.min() < 0):
        raise FileFormatError(f"{path}: duration or timestamp of 2^63 ps or more")
    channels = np.flatnonzero(np.bincount(records["channel"]))
    streams = []
    for ch in channels:
        tags = all_tags if channels.size == 1 else all_tags[records["channel"] == ch]
        if np.any(tags[1:] < tags[:-1]):
            tags = np.sort(tags)
        streams.append(TagStream(int(ch), tags, int(duration_ps)))
    return streams


def write_summary(path, data: dict) -> None:
    """Machine-parseable run summary, stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
