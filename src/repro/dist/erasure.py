"""Erasure-coded sharded checkpoints for the elastic 1.5D trainer.

Full-replication checkpointing (every rank holds the complete optimizer
state) costs ``O(P * model)`` memory and take-time traffic.  This module
replaces it with a classic storage-systems construction adapted to the
1.5D layout:

* In the 1.5D decomposition the weight rows of grid row ``rho`` are
  **already replicated** across that row's ``Pc`` column replicas, so a
  checkpoint can be *striped* with zero wire traffic: every member of a
  row group serializes the identical row-block state locally and keeps
  exactly one of ``Pc`` erasure chunks — ``k = Pc - r`` data chunks plus
  ``r`` parity chunks.
* Chunks are coded with a systematic **Reed–Solomon** code over GF(256)
  (generator rows drawn from a Vandermonde matrix, normalised so the
  first ``k`` rows are the identity).  Any ``k`` of the ``k + r`` chunks
  reconstruct the stripe **bit-exactly**, so any ``r`` concurrent rank
  losses — even all landing in one row group — leave every stripe
  recoverable.  With ``r = 1`` the single parity chunk plays the same
  role as a bitwise XOR of the data chunks.
* All stripes of one checkpoint use a **uniform chunk length** (the
  maximum over row groups, zero-padded), which keeps recovery traffic a
  closed-form function of ``(dims, Pr, k)`` — the property the telemetry
  audit (:func:`repro.telemetry.audit.audit_checkpoint_events`) exploits
  to close at zero relative error.

The :class:`ShardStore` is each rank's in-simulation "local disk": a map
from checkpoint step to either a full replica (``mode="replicate"``, and
always for the step-0 checkpoint: one read-only copy of the initial
weights per run, which every rank's store references) or one shard.
Recovery runs a *shard census*: survivors all-gather their holdings'
descriptors, pick the newest step whose every stripe still has ``>= k``
distinct surviving chunks (:func:`census_choose`), degrade to an older
step when shards are short, and fetch + decode
(:mod:`repro.dist.elastic`).

There is deliberately no RNG state in a checkpoint: the cyclic batch
window is a pure function of the absolute step index, so ``(weights, velocity,
losses, step)`` is the complete trajectory state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.partition import BlockPartition
from repro.errors import ConfigurationError

__all__ = [
    "gf_mul",
    "gf_inv",
    "gf_matmul",
    "rs_generator_matrix",
    "encode_stripe",
    "encode_chunk",
    "decode_stripe",
    "block_state_bytes",
    "chunk_bytes",
    "pack_block_state",
    "unpack_block_state",
    "ShardMeta",
    "ShardStore",
    "census_choose",
    "CENSUS_FIELDS",
    "MODE_REPLICATE",
    "MODE_ERASURE",
]

#: Simulation element width — checkpointed state is float64.
ELEMENT_BYTES = 8

#: Holding-mode codes used in census descriptors (all-integer payloads).
MODE_REPLICATE = 0
MODE_ERASURE = 1

#: Integer fields per census descriptor tuple:
#: ``(step, mode, row, col, pr, pc, k, r)``.
CENSUS_FIELDS = 8

# -- GF(256) arithmetic ------------------------------------------------------
#
# The field of the classic Reed-Solomon storage codes: bytes under XOR
# addition and log/antilog multiplication modulo the primitive
# polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d).

_GF_EXP = np.zeros(512, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_GF_EXP[255:510] = _GF_EXP[:255]

# Full 256x256 product table (64 KiB): scalar-by-vector multiplication
# becomes a single fancy-index lookup, fast enough for checkpoint-sized
# stripes without any native extension.
_GF_MUL = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
_GF_MUL[1:, 1:] = _GF_EXP[(_GF_LOG[_nz][:, None] + _GF_LOG[_nz][None, :]) % 255]


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    return int(_GF_MUL[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ConfigurationError("0 has no inverse in GF(256)")
    return int(_GF_EXP[255 - _GF_LOG[a]])


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) of uint8 matrices ``(m,k) @ (k,n)``."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"incompatible GF(256) matmul shapes {a.shape} @ {b.shape}"
        )
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    product = np.empty(b.shape[1], dtype=np.uint8)
    # Per nonzero coefficient c, a 1-D lookup of b's row in the 256-entry
    # table row of c: cheaper than one broadcast 2-D fancy index per column.
    for i, coeffs in enumerate(a.tolist()):
        row = out[i]
        for j, c in enumerate(coeffs):
            if c == 1:
                row ^= b[j]
            elif c:
                np.take(_GF_MUL[c], b[j], out=product)
                row ^= product
    return out


def _gf_mat_inv(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a square GF(256) matrix."""
    n = a.shape[0]
    aug = np.concatenate([a.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r, col]), None)
        if pivot is None:
            raise ConfigurationError("singular GF(256) matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = _GF_MUL[gf_inv(int(aug[col, col]))][aug[col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= _GF_MUL[aug[r, col]][aug[col]]
    return aug[:, n:].copy()


_GENERATORS: Dict[Tuple[int, int], np.ndarray] = {}
_DECODERS: Dict[Tuple[int, int, Tuple[int, ...]], np.ndarray] = {}


def rs_generator_matrix(k: int, r: int) -> np.ndarray:
    """The systematic ``(k+r, k)`` Reed-Solomon generator matrix.

    Rows are drawn from a Vandermonde matrix over distinct evaluation
    points (any ``k`` of them are linearly independent), then multiplied
    by the inverse of the top ``k x k`` block so data chunks pass
    through verbatim.  The independence property survives the change of
    basis, so *any* ``k`` chunks — data or parity — reconstruct the
    stripe.
    """
    if k < 1:
        raise ConfigurationError(f"need k >= 1 data chunks, got {k}")
    if r < 0:
        raise ConfigurationError(f"parity count must be >= 0, got {r}")
    if k + r > 256:
        raise ConfigurationError(f"GF(256) supports at most 256 chunks, got {k + r}")
    cached = _GENERATORS.get((k, r))
    if cached is not None:
        return cached
    vander = np.zeros((k + r, k), dtype=np.uint8)
    for i in range(k + r):
        acc = 1
        for j in range(k):
            vander[i, j] = acc
            acc = gf_mul(acc, i)
    gen = gf_matmul(vander, _gf_mat_inv(vander[:k]))
    gen.setflags(write=False)
    _GENERATORS[(k, r)] = gen
    return gen


def _as_padded_matrix(data: np.ndarray, k: int, chunk_len: int) -> np.ndarray:
    if data.nbytes > k * chunk_len:
        raise ConfigurationError(
            f"stripe of {data.nbytes} bytes does not fit {k} x {chunk_len} chunks"
        )
    padded = np.zeros(k * chunk_len, dtype=np.uint8)
    padded[: data.nbytes] = np.frombuffer(data.tobytes(), dtype=np.uint8)
    return padded.reshape(k, chunk_len)


def encode_stripe(
    data: np.ndarray, k: int, r: int, chunk_len: Optional[int] = None
) -> List[np.ndarray]:
    """All ``k + r`` chunks of one stripe (data first, parity last)."""
    if chunk_len is None:
        chunk_len = max(1, -(-int(data.nbytes) // k))
    matrix = _as_padded_matrix(data, k, chunk_len)
    gen = rs_generator_matrix(k, r)
    parity = gf_matmul(gen[k:], matrix)
    return [matrix[i].copy() for i in range(k)] + [parity[i].copy() for i in range(r)]


def encode_chunk(
    data: np.ndarray, k: int, r: int, index: int, chunk_len: Optional[int] = None
) -> np.ndarray:
    """Chunk ``index`` of the stripe, computed without the other chunks."""
    if not 0 <= index < k + r:
        raise ConfigurationError(f"chunk index {index} out of range [0, {k + r})")
    if chunk_len is None:
        chunk_len = max(1, -(-int(data.nbytes) // k))
    matrix = _as_padded_matrix(data, k, chunk_len)
    if index < k:
        return matrix[index].copy()
    gen = rs_generator_matrix(k, r)
    return gf_matmul(gen[index : index + 1], matrix)[0]


def _decoder_matrix(k: int, r: int, picked: Tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows ``picked``, cached like the generators.

    Every survivor of a census decodes the same stripes from the same
    surviving chunk indices, so one inversion serves them all.
    """
    cached = _DECODERS.get((k, r, picked))
    if cached is None:
        cached = _gf_mat_inv(rs_generator_matrix(k, r)[list(picked)])
        cached.setflags(write=False)
        _DECODERS[(k, r, picked)] = cached
    return cached


def decode_stripe(
    chunks: Dict[int, np.ndarray], k: int, r: int, length: int
) -> np.ndarray:
    """Reconstruct the original ``length`` bytes from any ``k`` chunks.

    ``chunks`` maps chunk index (0-based; ``>= k`` are parity) to the
    chunk bytes.  Deterministic: the ``k`` lowest surviving indices are
    used, so every survivor decodes the same bit pattern.
    """
    if len(chunks) < k:
        raise ConfigurationError(
            f"need {k} chunks to decode, only {len(chunks)} survive"
        )
    picked = sorted(chunks)[:k]
    stack = np.stack([np.asarray(chunks[i], dtype=np.uint8) for i in picked])
    if picked == list(range(k)):
        data = stack  # all-data fast path: systematic code, no solve needed
    else:
        data = gf_matmul(_decoder_matrix(k, r, tuple(picked)), stack)
    flat = data.reshape(-1)
    if length > flat.size:
        raise ConfigurationError(
            f"stripe of {flat.size} bytes cannot hold {length} payload bytes"
        )
    return flat[:length].copy()


# -- closed-form stripe geometry ---------------------------------------------


def block_state_bytes(
    dims: Sequence[int], pr: int, row: int, momentum: bool = False
) -> int:
    """Serialized bytes of grid row ``row``'s block state (weights [+velocity])."""
    total = 0
    for i in range(len(dims) - 1):
        rows = BlockPartition(dims[i + 1], pr).size(row)
        total += rows * dims[i] * ELEMENT_BYTES
    return total * (2 if momentum else 1)


def chunk_bytes(dims: Sequence[int], pr: int, k: int, momentum: bool = False) -> int:
    """Uniform chunk length of one checkpoint: ``max_rho ceil(L_rho / k)``."""
    longest = max(
        block_state_bytes(dims, pr, row, momentum) for row in range(pr)
    )
    return max(1, -(-longest // k))


def pack_block_state(
    w_blocks: Sequence[np.ndarray], v_blocks: Optional[Sequence[np.ndarray]]
) -> np.ndarray:
    """Serialize a row group's local blocks to one byte stripe (bit-exact)."""
    parts = [np.frombuffer(b.tobytes(), dtype=np.uint8) for b in w_blocks]
    if v_blocks is not None:
        parts += [np.frombuffer(b.tobytes(), dtype=np.uint8) for b in v_blocks]
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)


def unpack_block_state(
    buf: np.ndarray,
    dims: Sequence[int],
    pr: int,
    row: int,
    momentum: bool = False,
) -> Tuple[List[np.ndarray], Optional[List[np.ndarray]]]:
    """Invert :func:`pack_block_state` using the partition geometry."""
    shapes = [
        (BlockPartition(dims[i + 1], pr).size(row), dims[i])
        for i in range(len(dims) - 1)
    ]
    raw = np.asarray(buf, dtype=np.uint8)

    def take(shapes_list, offset):
        blocks = []
        for shape in shapes_list:
            nbytes = shape[0] * shape[1] * ELEMENT_BYTES
            chunk = raw[offset : offset + nbytes]
            blocks.append(
                np.frombuffer(chunk.tobytes(), dtype=np.float64).reshape(shape).copy()
            )
            offset += nbytes
        return blocks, offset

    w_blocks, offset = take(shapes, 0)
    v_blocks = None
    if momentum:
        v_blocks, offset = take(shapes, offset)
    return w_blocks, v_blocks


# -- shard store and census --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardMeta:
    """Take-time geometry of one shard, recorded with the chunk."""

    step: int
    row: int
    col: int
    pr: int
    pc: int
    k: int
    r: int
    momentum: int

    def descriptor(self) -> Tuple[int, ...]:
        return (
            self.step, MODE_ERASURE, self.row, self.col,
            self.pr, self.pc, self.k, self.r,
        )


@dataclasses.dataclass
class _Replica:
    """A full checkpoint (``mode="replicate"``, and the shared step-0 one).

    Every rank counts the step-0 checkpoint as stored, although the run
    holds it once.
    """

    checkpoint: object  # repro.dist.elastic.Checkpoint (duck-typed: no cycle)

    def stored_bytes(self) -> int:
        ck = self.checkpoint
        total = sum(int(w.nbytes) for w in ck.weights)
        if ck.velocity is not None:
            total += sum(int(v.nbytes) for v in ck.velocity)
        return total


@dataclasses.dataclass
class _Shard:
    """One erasure chunk plus the (tiny) replicated scalar metadata."""

    meta: ShardMeta
    chunk: np.ndarray
    losses: Tuple[float, ...]

    def stored_bytes(self) -> int:
        return int(self.chunk.nbytes)


class ShardStore:
    """A rank's local checkpoint holdings, keyed by step."""

    def __init__(self) -> None:
        self._held: Dict[int, object] = {}

    def add_replica(self, step: int, checkpoint: object) -> None:
        self._held[step] = _Replica(checkpoint)

    def add_shard(
        self,
        step: int,
        meta: ShardMeta,
        chunk: np.ndarray,
        losses: Tuple[float, ...],
    ) -> None:
        self._held[step] = _Shard(meta, chunk, losses)

    def get(self, step: int):
        return self._held.get(step)

    def steps(self) -> List[int]:
        return sorted(self._held)

    def truncate(self, step: int) -> None:
        """Drop holdings newer than ``step``.

        After a degraded restore the trajectory is recomputed from
        ``step`` on a *different* grid; stale newer shards belong to the
        old grid's bit pattern and must never be mixed into a later
        census.
        """
        self._held = {s: h for s, h in self._held.items() if s <= step}

    def descriptors(self) -> List[Tuple[int, ...]]:
        """All-integer census payload describing this rank's holdings."""
        out: List[Tuple[int, ...]] = []
        for step in sorted(self._held):
            holding = self._held[step]
            if isinstance(holding, _Shard):
                out.append(holding.meta.descriptor())
            else:
                out.append((step, MODE_REPLICATE, 0, 0, 0, 0, 0, 0))
        return out

    def stored_bytes(self) -> int:
        """Checkpoint state bytes this rank holds (weights/velocity only)."""
        return sum(h.stored_bytes() for h in self._held.values())


def census_choose(
    all_descs: Sequence[Sequence[Tuple[int, ...]]],
) -> Tuple[int, int, Optional[Tuple[int, int, int, int]]]:
    """Pick the newest fully-recoverable checkpoint from a shard census.

    ``all_descs`` holds each survivor's :meth:`ShardStore.descriptors`.
    A replicated step is recoverable when **every** survivor holds it (a
    restore is local); an erasure step when every row stripe of its
    take-time grid still has ``>= k`` distinct surviving chunks.

    Returns ``(chosen_step, newest_step, geometry)`` where ``geometry``
    is ``None`` for a replicated choice and ``(pr, pc, k, r)`` of the
    take-time grid for an erasure choice; ``chosen_step < newest_step``
    means the census **degraded** past unrecoverable checkpoints.
    Raises when nothing is recoverable (cannot happen while the step-0
    replica is universally held).
    """
    survivors = len(all_descs)
    replica_counts: Dict[int, int] = {}
    shard_geometry: Dict[int, Tuple[int, int, int, int]] = {}
    shard_cols: Dict[Tuple[int, int], set] = {}
    newest = 0
    for descs in all_descs:
        for step, mode, row, col, pr, pc, k, r in descs:
            newest = max(newest, step)
            if mode == MODE_REPLICATE:
                replica_counts[step] = replica_counts.get(step, 0) + 1
            else:
                shard_geometry[step] = (pr, pc, k, r)
                shard_cols.setdefault((step, row), set()).add(col)
    for step in sorted(set(replica_counts) | set(shard_geometry), reverse=True):
        if replica_counts.get(step, 0) == survivors:
            return step, newest, None
        geometry = shard_geometry.get(step)
        if geometry is not None:
            pr, _pc, k, _r = geometry
            if all(
                len(shard_cols.get((step, row), ())) >= k for row in range(pr)
            ):
                return step, newest, geometry
    raise ConfigurationError(
        "no recoverable checkpoint in the census — the step-0 replica "
        "should make this impossible"
    )
