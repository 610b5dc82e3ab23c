"""File formats: curve CSV out, spectrum and table CSV in, PTAG tag files, JSON summaries."""

import json
import os
import struct

import numpy as np

from . import simkit
from .simkit import TagStream, _blocks
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

    A leading byte-order mark, blank lines, '#' comments and rows ahead of
    the first numeric row with no numeric field (a column header) are
    skipped; any other row that does not parse as numbers is an error.  Every
    numeric row must have the same width, and every value must be finite.
    """
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(p) for p in line.split(",")])
            except ValueError:
                if rows or any(_is_number(p) for p in line.split(",")):
                    raise FileFormatError(f"{path}: non-numeric data row {line!r}") from None
                # a header line
    if not rows:
        raise FileFormatError(f"{path}: no numeric rows")
    if len({len(r) for r in rows}) > 1:
        raise FileFormatError(f"{path}: rows differ in column count")
    table = np.asarray(rows, dtype=float)
    if not np.isfinite(table).all():
        raise FileFormatError(f"{path}: non-finite value (nan or inf)")
    return table


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _PtagFile:
    """A PTAG file open for the lifetime of a with block."""

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class PtagWriter(_PtagFile):
    """Append blocks of one stream's tags to a new PTAG file.

    Header: magic "PTAG", u16 version, u64 duration_ps (little endian), then
    9-byte records of u8 channel + u64 timestamp_ps, time ordered: each block
    must be sorted and start at or after the last tag of the one before.
    """

    def __init__(self, path, channel: int, duration_ps: int):
        self.channel = channel
        self.count = 0  # records written
        self._fh = open(path, "wb")
        self._fh.write(PTAG_MAGIC)
        self._fh.write(struct.pack("<HQ", PTAG_VERSION, duration_ps))

    def append(self, tags: np.ndarray) -> None:
        records = np.empty(tags.size, dtype=_RECORD_DTYPE)
        records["channel"] = self.channel
        records["timestamp_ps"] = tags
        records.tofile(self._fh)
        self.count += tags.size


def write_ptag(path, channel: int, stream: TagStream) -> None:
    """Write one tag stream to a PTAG file on channel (see PtagWriter), block by block."""
    with PtagWriter(path, channel, stream.duration_ps) as writer:
        for block in _blocks(stream.tags):
            writer.append(block)


class PtagReader(_PtagFile):
    """A single-channel PTAG file: its header, then its timestamps in checked blocks.

    Opening reads the header and sizes the file; blocks() reads the records
    through one buffer of simkit._BLOCK records.  A record on a second channel, a
    timestamp of 2^63 ps or more, beyond the header's duration or before the
    record ahead of it, or a file that ends early, is a FileFormatError.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(_HEADER_BYTES)
            if header[:4] != PTAG_MAGIC:
                raise FileFormatError(f"{path}: bad magic {header[:4]!r}")
            if len(header) < _HEADER_BYTES:
                raise FileFormatError(f"{path}: truncated header, {len(header)} of "
                                      f"{_HEADER_BYTES} bytes")
            version, self.duration_ps = struct.unpack("<HQ", header[4:])
            if version != PTAG_VERSION:
                raise FileFormatError(f"{path}: unsupported version {version}")
            if self.duration_ps >= 2**63:
                raise FileFormatError(f"{path}: duration of 2^63 ps or more")
            self.size, partial = divmod(os.fstat(self._fh.fileno()).st_size - _HEADER_BYTES,
                                        _RECORD_DTYPE.itemsize)
            if partial:
                raise FileFormatError(f"{path}: truncated record, {partial} trailing bytes")
        except BaseException:
            self._fh.close()
            raise

    def blocks(self, out: np.ndarray | None = None):
        """The timestamps as int64 blocks of simkit._BLOCK, in file order.

        With out (size records long) the blocks are its consecutive slices;
        without, one reused buffer that the next block overwrites.
        """
        path, n, size = self.path, self.size, simkit._BLOCK
        buf = np.empty(min(n, size), dtype=_RECORD_DTYPE)
        tags = np.empty(buf.size, dtype=np.int64) if out is None else None
        last = 0
        for start in range(0, n, size):
            records = buf[:min(size, n - start)]
            if self._fh.readinto(records) != records.nbytes:
                raise FileFormatError(f"{path}: file shrank while being read")
            channels = records["channel"].copy()  # a strided field compares slower
            if start == 0:
                channel = channels[0]
            if (channels != channel).any():
                raise FileFormatError(f"{path}: records on more than one channel")
            block = (tags if out is None else out[start:])[:records.size]
            block[...] = records["timestamp_ps"]
            # u64 values of 2^63 and up come out negative in int64, so below last >= 0
            if block[0] < last or (block[1:] < block[:-1]).any():
                raise FileFormatError(f"{path}: timestamp of 2^63 ps or more" if block.min() < 0
                                      else f"{path}: records out of time order")
            last = int(block[-1])
            if last > self.duration_ps:
                raise FileFormatError(f"{path}: timestamp {last} ps beyond the "
                                      f"duration {self.duration_ps} ps")
            yield block


def read_ptag(path) -> TagStream:
    """Read a single-channel PTAG file back into its TagStream (see PtagReader)."""
    with PtagReader(path) as reader:
        tags = np.empty(reader.size, dtype=np.int64)
        for _ in reader.blocks(tags):  # each block lands in its slice of tags
            pass
    return TagStream(tags, int(reader.duration_ps))


def write_summary(path, data: dict) -> None:
    """Machine-parseable run summary, stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
