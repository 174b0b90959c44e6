"""Snapshot-stream compression for in-situ workflows.

The paper motivates cuSZ-Hi with streaming producers — turbulence and RTM
codes emitting a snapshot per timestep faster than the filesystem can absorb
(§1, §6.2.2 "in-time streaming data compression").  This module provides the
session abstraction such a workflow needs on top of any registered codec:

* :class:`StreamWriter` — compress snapshots one by one into a container
  stream (file-like or in-memory) with a self-describing per-record frame;
* :class:`StreamReader` — iterate/ random-access the stored snapshots;
* optional **temporal delta mode**: each snapshot is compressed against the
  previous *reconstruction* (so the bound still holds absolutely), which
  pays off when the field evolves slowly between steps.

Frame layout: ``u32 frame_len | u8 flags | payload`` repeated; flags bit 0
marks a temporal-delta frame.  The stream starts with a 16-byte header
(magic, version, frame count placeholder is not needed — frames are
self-delimiting and the reader scans to EOF).
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .compressor import CuszHi, resolve_error_bound
from .config import CuszHiConfig
from .container import CompressedBlob
from ..api.registry import codec_class

__all__ = ["StreamWriter", "StreamReader"]

_MAGIC = b"RPZSTRM1"
_FLAG_DELTA = 1


def _as_absolute_mode(compressor):
    """Return a compressor equivalent operating on absolute bounds.

    The stream writer quantifies every frame against one absolute bound;
    compressors constructed in the default value-range-relative mode are
    rebuilt (cuSZ-Hi) or switched (baselines expose ``eb_mode``).
    """
    if isinstance(compressor, CuszHi):
        return CuszHi(config=compressor.config.with_(eb_mode="abs"))
    if hasattr(compressor, "eb_mode"):
        compressor.eb_mode = "abs"
        return compressor
    inner = getattr(compressor, "_inner", None)
    if isinstance(inner, CuszHi):  # the pinned cuSZ-I/IB shells
        compressor._inner = CuszHi(config=inner.config.with_(eb_mode="abs"))
        return compressor
    raise TypeError("compressor does not support absolute error bounds")


class StreamWriter:
    """Sequentially compress snapshots into a byte stream.

    Parameters
    ----------
    sink:
        A writable binary file-like object (defaults to an internal buffer
        retrievable via :meth:`getvalue`).
    compressor:
        Any object with ``compress(data, eb) -> CompressedBlob``; defaults to
        cuSZ-Hi-CR.
    eb:
        Value-range-relative bound, resolved against the *first* snapshot's
        range into one absolute bound used for the whole stream.  A fixed
        absolute bound keeps quality uniform across timesteps and is what
        makes temporal-delta frames pay off: slow inter-step changes shrink
        the code magnitudes instead of the bound.
    temporal:
        Compress the change against the previous snapshot's reconstruction
        instead of the raw field.  Deltas are taken against reconstructions,
        so the absolute per-point bound is preserved end to end without
        drift accumulation.
    tile_shape / workers / executor:
        Tiled-frame knobs (see :mod:`repro.core.tiling`): when ``tile_shape``
        is set, each snapshot is split into tiles compressed concurrently by
        ``workers`` lanes of the chosen executor, so one snapshot fans out
        across cores instead of serializing on one.  Only meaningful for
        cuSZ-Hi compressors; readers decode tiled frames transparently.
    """

    def __init__(
        self,
        sink=None,
        compressor=None,
        eb: float = 1e-3,
        temporal: bool = False,
        tile_shape: tuple[int, ...] | None = None,
        workers: int = 0,
        executor: str | None = None,
    ):
        self._sink = sink if sink is not None else io.BytesIO()
        self._own_sink = sink is None
        tiling_kwargs = {}
        if tile_shape is not None:
            tiling_kwargs["tile_shape"] = tuple(tile_shape)
            tiling_kwargs["workers"] = workers
            tiling_kwargs["executor"] = executor or "threads"
        elif executor is not None or workers:
            raise ValueError("workers/executor require tile_shape")
        if compressor is None:
            compressor = CuszHi(config=CuszHiConfig(eb_mode="abs", **tiling_kwargs))
        else:
            compressor = _as_absolute_mode(compressor)
            if tiling_kwargs:
                if not isinstance(compressor, CuszHi):
                    raise TypeError("tiled frames require a cuSZ-Hi compressor")
                compressor = CuszHi(config=compressor.config.with_(**tiling_kwargs))
        self.compressor = compressor
        # Temporal mode reads the compressor's in-band reconstruction (see
        # append); CuszHi keeps it only on request.
        if temporal and isinstance(compressor, CuszHi):
            compressor.retain_recon = True
        self.eb = eb
        self._abs_eb: float | None = None
        self.temporal = temporal
        self._prev_recon: np.ndarray | None = None
        self.frames_written = 0
        self.bytes_written = 0
        self.raw_bytes = 0
        self._sink.write(_MAGIC)
        self.bytes_written += len(_MAGIC)

    def append(self, snapshot: np.ndarray) -> CompressedBlob:
        """Compress and write one snapshot; returns its blob for inspection."""
        snapshot = np.asarray(snapshot)
        if self._abs_eb is None:
            self._abs_eb = resolve_error_bound(snapshot, self.eb, "rel")
        flags = 0
        if self.temporal and self._prev_recon is not None:
            if self._prev_recon.shape != snapshot.shape:
                raise ValueError("temporal mode requires constant snapshot shape")
            payload_field = snapshot - self._prev_recon
            flags |= _FLAG_DELTA
        else:
            payload_field = snapshot
        blob = self.compressor.compress(payload_field, self._abs_eb)
        payload = blob.to_bytes()
        self._sink.write(struct.pack("<IB", len(payload), flags))
        self._sink.write(payload)
        self.frames_written += 1
        self.bytes_written += 5 + len(payload)
        self.raw_bytes += snapshot.nbytes
        if self.temporal:
            # The compressor's in-band reconstruction is bit-identical to
            # decompressing the blob it just produced (decompression replays
            # the same pass sequence), so reuse it instead of paying a full
            # decode per appended frame.  Compressors without the attribute
            # (baselines, tiled engines) fall back to the decode round-trip.
            delta_recon = getattr(self.compressor, "last_recon", None)
            if delta_recon is None:
                delta_recon = self.compressor.decompress(blob)
            else:
                self.compressor.last_recon = None  # consumed; release the field
            if flags & _FLAG_DELTA:
                self._prev_recon = self._prev_recon + delta_recon
            else:
                self._prev_recon = delta_recon.astype(snapshot.dtype)
        return blob

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(1, self.bytes_written)

    def getvalue(self) -> bytes:
        if not self._own_sink:
            raise ValueError("writer was constructed over an external sink")
        return self._sink.getvalue()


class StreamReader:
    """Iterate snapshots out of a :class:`StreamWriter` stream."""

    def __init__(self, source):
        if isinstance(source, (bytes, bytearray, memoryview)):
            source = io.BytesIO(bytes(source))
        self._src = source
        magic = self._src.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a repro snapshot stream")
        self._prev_recon: np.ndarray | None = None

    def __iter__(self):
        return self

    def _read_frame(self):
        """Parse one ``(flags, CompressedBlob)`` frame; ``None`` at clean EOF."""
        head = self._src.read(5)
        if not head:
            return None
        if len(head) < 5:
            raise ValueError("truncated frame header")
        (length, flags) = struct.unpack("<IB", head)
        payload = self._src.read(length)
        if len(payload) != length:
            raise ValueError("truncated frame")
        return flags, CompressedBlob.from_bytes(payload)

    def __next__(self) -> np.ndarray:
        frame = self._read_frame()
        if frame is None:
            raise StopIteration
        flags, blob = frame
        field = codec_class(blob.codec)().decompress(blob)
        if flags & _FLAG_DELTA:
            if self._prev_recon is None:
                raise ValueError("delta frame without a preceding key frame")
            field = (self._prev_recon + field).astype(field.dtype)
        self._prev_recon = field
        return field

    def read_all(self) -> list[np.ndarray]:
        return list(self)

    def frames(self):
        """Yield ``(flags, CompressedBlob)`` per frame without reconstructing.

        Decoding a blob runs every per-segment CRC check, so this is the
        cheap structural-verification walk (``repro archive verify`` uses it
        on stream entries): no decompression, no delta accumulation.  Shares
        the underlying file position with :meth:`__next__` — use one access
        style per reader.
        """
        while True:
            frame = self._read_frame()
            if frame is None:
                return
            yield frame
