"""Embedding-set data model and JSON Lines interchange.

A set is an ordered collection of embeddings, every vector float64 with the
same dimension, ids unique within the set. It is stored as columns: an ids
tuple, one read-only (n, k) matrix, and label and meta tuples holding None
where a row has none. There is no per-row object: ``from_array``,
``load_set`` and ``subset`` build sets, and ``ids()`` and ``vectors`` read
them. Sets are never empty; asking a diversity metric about an empty
collection is a caller bug, so emptiness is rejected at construction time
rather than coerced to zero scores downstream.

File format: one JSON object per line,
``{"id": str?, "vector": [num, ...], "label": str?, "meta": {str: str}?}``.
A record without an id gets its zero-based line index, rendered in decimal.
Floats are written with Python's shortest round-trip rendering, so a
write/load cycle reproduces vectors bit for bit.
"""

from __future__ import annotations

import json
from array import array
from typing import Iterable, Mapping, Sequence, Sized

import numpy as np

from . import _NUMBER_TYPES, _ids
from .errors import (
    DimensionMismatch,
    DivsatError,
    DuplicateId,
    EmptySet,
    EmptyVector,
    MalformedLine,
    NonFiniteValue,
    UnknownId,
)
from ._proc import json_objects, read_lines, write_lines


class EmbeddingSet:
    """Ordered, fixed-dimension, non-empty collection of embeddings, held as
    columns. Build one with ``from_array``, ``load_set`` or ``subset``."""

    __slots__ = ("_ids", "_vectors", "_labels", "_metas", "_index")

    def __init__(self, *args, **kwargs):
        raise TypeError("build an EmbeddingSet with from_array, load_set or subset")

    @classmethod
    def _from_columns(cls, ids, vectors, labels=None, metas=None, row_name=None):
        """A new set owning ``vectors``; ``row_name(pos)`` names rows in errors."""
        # The one validating pass behind every way of building a set.
        name = row_name or "row {}".format
        ids = tuple(ids)
        if not ids:
            raise EmptySet("an embedding set must contain at least one record")
        mat = np.asarray(vectors, dtype=np.float64)
        if mat.ndim != 2:
            raise MalformedLine("expected a two-dimensional (n, k) array")
        n = len(ids)
        labels = (None,) * n if labels is None else tuple(labels)
        metas = (None,) * n if metas is None else tuple(metas)
        if not len(mat) == len(labels) == len(metas) == n:
            raise MalformedLine(f"got {len(mat)} rows but {n} ids and {len(labels)} labels")
        if mat.shape[1] == 0:
            raise EmptyVector("vectors have no entries")
        finite = np.isfinite(mat).all(axis=1)
        if not finite.all():
            raise NonFiniteValue(f"{name(int(np.argmin(finite)))}: vector is not finite")
        index: dict[str, int] = {}
        for pos, (record_id, label, meta) in enumerate(zip(ids, labels, metas)):
            if not isinstance(record_id, str) or not record_id:
                raise MalformedLine(f"{name(pos)}: record id must be a non-empty string")
            if record_id in index:
                raise DuplicateId(f"{name(pos)}: duplicate record id {record_id!r}, "
                                  f"first at {name(index[record_id])}")
            if label is not None and not isinstance(label, str):
                raise MalformedLine(f"{name(pos)}: label must be a string when present")
            if meta is not None and not (
                isinstance(meta, Mapping)
                and all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())
            ):
                raise MalformedLine(f"{name(pos)}: meta must map strings to strings")
            index[record_id] = pos
        mat.flags.writeable = False
        obj = cls.__new__(cls)
        obj._ids, obj._vectors, obj._labels, obj._index = ids, mat, labels, index
        obj._metas = tuple(None if meta is None else dict(meta) for meta in metas)
        return obj

    @classmethod
    def from_array(
        cls,
        values: np.ndarray,
        ids: Sequence[str] | None = None,
        labels: Sequence[str | None] | None = None,
        id_prefix: str = "",
    ) -> "EmbeddingSet":
        """Build a set from an (n, k) array; default ids are the prefixed row indices."""
        try:
            mat = np.array(values, dtype=np.float64)  # private copy
        except (TypeError, ValueError):
            raise _not_a_matrix(values) from None
        if ids is None:  # a 0-d input gets one id so the 2-D check reports it
            ids = [f"{id_prefix}{i}" for i in range(len(mat) if mat.ndim else 1)]
        else:
            ids = _ids("ids", ids)
        return cls._from_columns(ids, mat, labels)

    @property
    def size(self) -> int:
        return len(self._ids)

    @property
    def dimension(self) -> int:
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """All vectors as one read-only (n, k) matrix."""
        return self._vectors

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        return (self._ids, self._labels, self._metas) == (
            other._ids, other._labels, other._metas
        ) and np.array_equal(self._vectors, other._vectors)

    def __repr__(self) -> str:
        return f"EmbeddingSet(n={self.size}, k={self.dimension})"


def _not_a_matrix(values) -> DivsatError:
    # Why numpy could not make a float matrix of ``values``; its own message
    # names neither the row nor the fault.
    if not isinstance(values, Sized):
        return MalformedLine("expected a two-dimensional (n, k) array")
    widths = [len(row) if isinstance(row, Sized) and not isinstance(row, str) else None
              for row in values]
    if None in widths:
        return MalformedLine("expected a two-dimensional (n, k) array")
    for pos, width in enumerate(widths):
        if width != widths[0]:
            return DimensionMismatch(f"row {pos}: vector has dimension {width}, "
                                     f"expected {widths[0]}")
    return MalformedLine("vector entries must be numbers")


def _same_dimension(a: EmbeddingSet, b: EmbeddingSet) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"sets have dimensions {a.dimension} and {b.dimension}")


def _merge(first: EmbeddingSet, second: EmbeddingSet, id_prefix: str = "") -> EmbeddingSet:
    """``first`` followed by ``second``, whose ids get ``id_prefix`` prepended."""
    _same_dimension(first, second)
    return EmbeddingSet._from_columns(
        first._ids + tuple(id_prefix + record_id for record_id in second._ids),
        np.vstack((first._vectors, second._vectors)),
        first._labels + second._labels,
        first._metas + second._metas,
    )


def _parse_lines(lines: Iterable[str], source: str, where: str = "line") -> EmbeddingSet:
    # Lines are read one at a time and each vector is appended to one flat
    # float64 buffer, which becomes the (n, k) matrix without a copy, so no
    # list of lines is held. The set constructor then validates the
    # columns. Errors cite ``{where} N`` as json_objects does, and an input
    # with no records names ``source``.
    rows: list[tuple] = []  # (id, label, meta, line number)
    values = array("d")
    k = 0
    for i, obj in json_objects(lines, MalformedLine, where):
        raw = obj.get("vector")
        try:
            if not isinstance(raw, list):
                raise MalformedLine("\"vector\" must be a JSON array")
            if not raw:
                raise EmptyVector("\"vector\" is empty")
            # JSON numbers decode to exactly int or float; bool, None and str do not
            if not _NUMBER_TYPES.issuperset(map(type, raw)):
                raise MalformedLine("vector entries must be numbers")
            if not k:
                k = len(raw)
            elif len(raw) != k:
                raise DimensionMismatch(f"vector has dimension {len(raw)}, expected {k}")
            values.extend(raw)
        except OverflowError:
            raise NonFiniteValue(f"{where} {i + 1}: vector entry overflows to infinity") from None
        except DivsatError as exc:
            raise type(exc)(f"{where} {i + 1}: {exc}") from None
        record_id = obj.get("id")
        record_id = str(i) if record_id is None else record_id
        rows.append((record_id, obj.get("label"), obj.get("meta"), i + 1))
    if not rows:
        raise EmptySet(f"{source}: no records")
    ids, labels, metas, numbers = zip(*rows)
    return EmbeddingSet._from_columns(
        ids, np.frombuffer(values).reshape(len(rows), k), labels, metas,
        row_name=lambda pos: f"{where} {numbers[pos]}",
    )


def load_set(path) -> EmbeddingSet:
    """Load a JSON Lines embedding file, preserving record order.

    Whitespace-only lines are ignored but still count toward the line index
    used for defaulted ids. Error messages cite 1-based line numbers.
    """
    return _parse_lines(read_lines(path), source=str(path))


def _row_json(record_id: str, vector: list, label, meta) -> str:
    obj: dict = {"id": record_id, "vector": vector}
    if label is not None:
        obj["label"] = label
    if meta is not None:
        obj["meta"] = dict(meta)
    return json.dumps(obj, ensure_ascii=False, allow_nan=False)


def write_set(embeddings: EmbeddingSet, path) -> None:
    """Write a set as JSON Lines; a later load_set reproduces it exactly."""
    write_lines(path, (
        _row_json(embeddings._ids[pos], row.tolist(), embeddings._labels[pos],
                  embeddings._metas[pos])
        for pos, row in enumerate(embeddings.vectors)
    ))


def subset(embeddings: EmbeddingSet, ids: Iterable[str]) -> EmbeddingSet:
    """Records whose ids are in ``ids``, kept in their original relative order."""
    wanted = set(_ids("ids", ids))
    missing = wanted.difference(embeddings._index)
    if missing:
        raise UnknownId(f"no record with id {sorted(missing)[0]!r}")
    rows = sorted(embeddings._index[i] for i in wanted)
    kept_ids, labels, metas = (
        [column[r] for r in rows]
        for column in (embeddings._ids, embeddings._labels, embeddings._metas)
    )
    return EmbeddingSet._from_columns(kept_ids, embeddings.vectors[rows], labels, metas)
