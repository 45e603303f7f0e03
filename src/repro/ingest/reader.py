"""Memory-mapped readers for ``.redg`` edge-stream files.

:class:`EdgeStreamFile` validates the header and exposes seekable
``(edge_ids, src, dst)`` chunk iteration over any ``[start, stop)`` edge
range — resident memory is one chunk regardless of file size, since the
payload is a read-only :func:`numpy.memmap`.  Two adapters replay a file
through the existing partitioner interfaces without building a
:class:`~repro.graph.digraph.Graph`:

* :class:`FileEdgeStream` — the edge-stream shape (``EdgeArrival``
  elements, plus the ``iter_chunks`` fast path that
  :func:`repro.partitioning.kernels.iter_edge_chunks` delegates to);
* :class:`FileVertexStream` — ``VertexArrival`` elements replayed from
  an adjacency-sorted spill (:func:`repro.ingest.writer.spill_adjacency`),
  stitching neighbour runs across chunk boundaries.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.errors import IngestError
from repro.graph.stream import EdgeArrival, VertexArrival
from repro.ingest.format import FORMAT_VERSION, HEADER_SIZE, MAGIC, Header

__all__ = [
    "EdgeStreamFile",
    "FileEdgeStream",
    "FileVertexStream",
]

#: Default edges per yielded chunk (matches the scoring-loop chunking).
DEFAULT_READ_CHUNK = 16384


class EdgeStreamFile:
    """A validated, memory-mapped ``.redg`` file."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        size = os.path.getsize(self.path)
        if size < HEADER_SIZE:
            raise IngestError(
                f"{self.path}: too short for a .redg header "
                f"({size} < {HEADER_SIZE} bytes)")
        with open(self.path, "rb") as fh:
            header = Header.unpack(fh.read(HEADER_SIZE))
        if header.magic != MAGIC:
            raise IngestError(
                f"{self.path}: bad magic {header.magic!r} "
                f"(expected {MAGIC!r}) — not a .redg stream file")
        if header.version != FORMAT_VERSION:
            raise IngestError(
                f"{self.path}: format version {header.version} unsupported "
                f"(this reader speaks version {FORMAT_VERSION})")
        expected = (HEADER_SIZE + 16 * header.num_edges
                    + 8 * header.num_chunks)
        if size != expected:
            raise IngestError(
                f"{self.path}: file is {size} bytes but the header promises "
                f"{expected} — truncated or corrupt")
        self.header = header
        footer_offset = HEADER_SIZE + 16 * header.num_edges
        if header.num_chunks:
            footer = np.memmap(self.path, dtype="<u8", mode="r",
                               offset=footer_offset,
                               shape=(header.num_chunks,))
            # Check on the unsigned values: an entry >= 2**63 would wrap
            # negative in int64 and could still sum to num_edges.
            if int(footer.max()) > header.num_edges:
                raise IngestError(
                    f"{self.path}: chunk table entry {int(footer.max())} "
                    f"exceeds the header's {header.num_edges} edges")
            chunk_lengths = np.asarray(footer, dtype=np.int64)
            del footer
        else:
            chunk_lengths = np.zeros(0, dtype=np.int64)
        if int(chunk_lengths.sum()) != header.num_edges:
            raise IngestError(
                f"{self.path}: chunk table sums to {int(chunk_lengths.sum())} "
                f"edges, header promises {header.num_edges}")
        self.chunk_lengths = chunk_lengths
        # chunk c covers edge ids [_bounds[c], _bounds[c + 1])
        self._bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(chunk_lengths)])
        self._payload = (np.memmap(self.path, dtype="<u8", mode="r",
                                   offset=HEADER_SIZE,
                                   shape=(2 * header.num_edges,))
                         if header.num_edges else
                         np.zeros(0, dtype="<u8"))

    # -- header facts --------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @property
    def num_edges(self) -> int:
        return self.header.num_edges

    @property
    def num_chunks(self) -> int:
        return self.header.num_chunks

    @property
    def adjacency_sorted(self) -> bool:
        return self.header.adjacency_sorted

    def describe(self) -> dict:
        """Header facts as a plain dict (the ``ingest info`` CLI view)."""
        lengths = self.chunk_lengths
        return {
            "path": self.path,
            "format_version": self.header.version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_chunks": self.num_chunks,
            "adjacency_sorted": self.adjacency_sorted,
            "payload_bytes": 16 * self.num_edges,
            "max_chunk_edges": int(lengths.max()) if lengths.size else 0,
        }

    # -- chunk iteration ------------------------------------------------
    def iter_chunks(
        self, chunk_edges: int | None = None, *,
        start: int = 0, stop: int | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(edge_ids, src, dst)`` int64 chunks for ``[start, stop)``.

        Chunks follow the stored layout, clipped to the range and split
        further when *chunk_edges* is given (stored chunks are never
        merged, so a yielded chunk holds at most
        ``min(stored_length, chunk_edges)`` edges).  Edge ids are global
        stream positions.  A vertex id outside ``[0, num_vertices)``
        raises :class:`~repro.errors.IngestError` before its chunk is
        yielded.
        """
        m = self.num_edges
        stop = m if stop is None else int(stop)
        start = int(start)
        if not (0 <= start <= stop <= m):
            raise IngestError(
                f"invalid edge range [{start}, {stop}) for {m} edges")
        if chunk_edges is not None and chunk_edges < 1:
            raise IngestError(f"chunk_edges must be >= 1, got {chunk_edges}")
        if start == stop:
            return
        bounds = self._bounds
        payload = self._payload
        first = int(np.searchsorted(bounds, start, side="right")) - 1
        for c in range(first, self.num_chunks):
            c_start = int(bounds[c])
            c_stop = int(bounds[c + 1])
            if c_start >= stop:
                break
            lo = max(start, c_start)
            hi = min(stop, c_stop)
            if lo >= hi:
                continue
            base = 2 * c_start
            length = c_stop - c_start
            step = hi - lo if chunk_edges is None else int(chunk_edges)
            for piece in range(lo, hi, step):
                piece_stop = min(piece + step, hi)
                src = payload[base + (piece - c_start):
                              base + (piece_stop - c_start)]
                dst = payload[base + length + (piece - c_start):
                              base + length + (piece_stop - c_start)]
                top = max(int(src.max()), int(dst.max()))
                if top >= self.num_vertices:
                    raise IngestError(
                        f"{self.path}: edges [{piece}, {piece_stop}) name "
                        f"vertex id {top}, but the header declares "
                        f"{self.num_vertices} vertices")
                yield (np.arange(piece, piece_stop, dtype=np.int64),
                       src.astype(np.int64), dst.astype(np.int64))

    def close(self) -> None:
        """Drop the payload mapping (further iteration is invalid)."""
        self._payload = np.zeros(0, dtype="<u8")

    def __enter__(self) -> "EdgeStreamFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileEdgeStream:
    """Edge-stream adapter over a ``.redg`` file.

    Yields :class:`~repro.graph.stream.EdgeArrival` elements in file
    order and exposes ``iter_chunks`` so the kernel layer's
    :func:`~repro.partitioning.kernels.iter_edge_chunks` streams arrays
    straight off the memory map — every vertex-cut partitioner accepts
    it wherever an :class:`~repro.graph.stream.EdgeStream` fits.
    """

    def __init__(self, source) -> None:
        self.file = (source if isinstance(source, EdgeStreamFile)
                     else EdgeStreamFile(source))

    @property
    def num_vertices(self) -> int:
        return self.file.num_vertices

    @property
    def num_edges(self) -> int:
        return self.file.num_edges

    def __len__(self) -> int:
        return self.num_edges

    def iter_chunks(
        self, chunk_size: int = DEFAULT_READ_CHUNK,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self.file.iter_chunks(chunk_size)

    def __iter__(self) -> Iterator[EdgeArrival]:
        for edge_ids, src, dst in self.iter_chunks():
            yield from (EdgeArrival(e, s, d) for e, s, d in
                        zip(edge_ids.tolist(), src.tolist(), dst.tolist()))


class FileVertexStream:
    """Vertex-stream adapter over an adjacency-sorted ``.redg`` file.

    Replays each contiguous same-source run as one
    :class:`~repro.graph.stream.VertexArrival`, stitching runs that span
    chunk boundaries.  Vertices with no neighbours own no run and are
    never yielded, so graphs with isolated vertices produce partial
    assignments (exactly like any external vertex stream would).
    """

    def __init__(self, source) -> None:
        file = (source if isinstance(source, EdgeStreamFile)
                else EdgeStreamFile(source))
        if not file.adjacency_sorted:
            raise IngestError(
                f"{file.path}: vertex replay needs an adjacency-sorted "
                f"spill (see repro.ingest.spill_adjacency)")
        self.file = file

    @property
    def num_vertices(self) -> int:
        return self.file.num_vertices

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[VertexArrival]:
        pending_vertex: int | None = None
        pending_parts: list[np.ndarray] = []
        for _, src, dst in self.file.iter_chunks():
            boundaries = np.flatnonzero(src[1:] != src[:-1]) + 1
            run_edges = np.split(dst, boundaries)
            run_vertices = src[np.concatenate(
                [np.zeros(1, dtype=np.int64), boundaries])].tolist()
            for u, neighbors in zip(run_vertices, run_edges):
                if pending_vertex is not None and u == pending_vertex:
                    pending_parts.append(neighbors)
                    continue
                if pending_vertex is not None:
                    yield VertexArrival(pending_vertex,
                                        _concat(pending_parts))
                pending_vertex = int(u)
                pending_parts = [neighbors]
        if pending_vertex is not None:
            yield VertexArrival(pending_vertex, _concat(pending_parts))


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
