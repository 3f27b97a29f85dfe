"""Unit tests for the Reed-Solomon checkpoint codec and shard census.

The elastic trainer's multi-failure guarantee rests on three properties
proved here in isolation: GF(256) is a field, any ``k`` of the ``k + r``
chunks reconstruct a stripe bit-exactly, and the census always finds the
newest recoverable step (degrading, never silently guessing).
"""

import itertools

import numpy as np
import pytest

from repro.dist.erasure import (
    _GF_MUL,
    CENSUS_FIELDS,
    MODE_ERASURE,
    MODE_REPLICATE,
    ShardMeta,
    ShardStore,
    block_state_bytes,
    census_choose,
    chunk_bytes,
    decode_stripe,
    encode_chunk,
    encode_stripe,
    gf_inv,
    gf_matmul,
    gf_mul,
    pack_block_state,
    rs_generator_matrix,
    unpack_block_state,
    _decoder_matrix,
)
from repro.errors import ConfigurationError


class TestGF256:
    def test_multiplicative_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_mul_matches_reference_polynomial_arithmetic(self):
        def ref_mul(a, b):
            out = 0
            while b:
                if b & 1:
                    out ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return out

        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, 256, (200, 2)):
            assert gf_mul(int(a), int(b)) == ref_mul(int(a), int(b))

    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_zero_has_no_inverse(self):
        with pytest.raises(ConfigurationError):
            gf_inv(0)

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (3, 2, 5), (6, 6, 4096), (2, 6, 0), (4, 0, 3)])
    def test_matmul_matches_2d_table_lookup(self, m, k, n):
        # The reference: one broadcast 2-D lookup of the product table per
        # column of ``a``, XOR-accumulated.  Zeros and ones are drawn
        # often, since the product skips the former and copies the latter.
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        a[rng.random((m, k)) < 0.3] = 0
        a[rng.random((m, k)) < 0.2] = 1
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        ref = np.zeros((m, n), dtype=np.uint8)
        for j in range(k):
            ref ^= _GF_MUL[a[:, j][:, None], b[j][None, :]]
        out = gf_matmul(a, b)
        assert out.dtype == np.uint8 and out.tobytes() == ref.tobytes()

    def test_matmul_shape_validation(self):
        with pytest.raises(ConfigurationError):
            gf_matmul(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8)
            )


class TestGeneratorMatrix:
    def test_systematic_prefix_is_identity(self):
        for k, r in [(1, 1), (2, 1), (3, 2), (5, 3)]:
            gen = rs_generator_matrix(k, r)
            assert gen.shape == (k + r, k)
            np.testing.assert_array_equal(gen[:k], np.eye(k, dtype=np.uint8))

    def test_any_k_rows_invertible(self):
        k, r = 3, 3
        gen = rs_generator_matrix(k, r)
        for rows in itertools.combinations(range(k + r), k):
            sub = gen[list(rows)]
            # A singular submatrix would raise inside the inverse; the
            # MDS property says every k-subset is a basis.
            prod = gf_matmul(sub, np.eye(k, dtype=np.uint8))
            np.testing.assert_array_equal(prod, sub)
            decode_stripe(
                {i: sub[j] for j, i in enumerate(rows)}, k, r, k
            )  # must not raise

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rs_generator_matrix(0, 1)
        with pytest.raises(ConfigurationError):
            rs_generator_matrix(2, -1)
        with pytest.raises(ConfigurationError):
            rs_generator_matrix(200, 100)

    def test_cached_matrix_is_immutable(self):
        gen = rs_generator_matrix(2, 1)
        with pytest.raises(ValueError):
            gen[0, 0] = 7

    def test_cached_decoder_inverts_the_picked_rows(self):
        k, r = 3, 2
        gen = rs_generator_matrix(k, r)
        for picked in itertools.combinations(range(k + r), k):
            dec = _decoder_matrix(k, r, picked)
            assert _decoder_matrix(k, r, picked) is dec
            np.testing.assert_array_equal(
                gf_matmul(dec, gen[list(picked)]), np.eye(k, dtype=np.uint8)
            )
            with pytest.raises(ValueError):
                dec[0, 0] = 7


class TestStripeCodec:
    @pytest.mark.parametrize("k,r", [(1, 1), (2, 1), (3, 2), (4, 2)])
    def test_roundtrip_over_every_loss_pattern(self, k, r):
        rng = np.random.default_rng(k * 10 + r)
        payload = rng.integers(0, 256, 37, dtype=np.uint8).view(np.uint8)
        chunks = encode_stripe(payload, k, r)
        assert len(chunks) == k + r
        for kept in itertools.combinations(range(k + r), k):
            out = decode_stripe(
                {i: chunks[i] for i in kept}, k, r, payload.nbytes
            )
            assert out.tobytes() == payload.tobytes()

    def test_encode_chunk_matches_encode_stripe(self):
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 256, 50, dtype=np.uint8)
        k, r = 3, 2
        chunks = encode_stripe(payload, k, r)
        for i in range(k + r):
            np.testing.assert_array_equal(
                encode_chunk(payload, k, r, i), chunks[i]
            )
        with pytest.raises(ConfigurationError):
            encode_chunk(payload, k, r, k + r)

    def test_decode_needs_k_chunks(self):
        payload = np.arange(10, dtype=np.uint8)
        chunks = encode_stripe(payload, 2, 1)
        with pytest.raises(ConfigurationError):
            decode_stripe({0: chunks[0]}, 2, 1, 10)

    def test_float64_payload_bit_exact(self):
        rng = np.random.default_rng(3)
        state = rng.standard_normal(33)
        raw = np.frombuffer(state.tobytes(), dtype=np.uint8)
        chunks = encode_stripe(raw, 3, 1)
        out = decode_stripe({1: chunks[1], 2: chunks[2], 3: chunks[3]}, 3, 1, raw.nbytes)
        assert np.frombuffer(out.tobytes(), dtype=np.float64).tobytes() == state.tobytes()


class TestGeometry:
    def test_chunk_bytes_covers_widest_row(self):
        dims, pr, k = (8, 10, 6), 2, 3
        widest = max(block_state_bytes(dims, pr, row) for row in range(pr))
        assert chunk_bytes(dims, pr, k) == -(-widest // k)
        assert chunk_bytes(dims, pr, k) * k >= widest

    def test_momentum_doubles_state(self):
        dims = (8, 10, 6)
        assert block_state_bytes(dims, 2, 0, momentum=True) == 2 * block_state_bytes(
            dims, 2, 0
        )

    def test_pack_unpack_roundtrip(self):
        dims, pr = (6, 8, 5), 2
        rng = np.random.default_rng(5)
        for row in range(pr):
            from repro.dist.partition import BlockPartition

            shapes = [
                (BlockPartition(dims[i + 1], pr).size(row), dims[i])
                for i in range(len(dims) - 1)
            ]
            w = [rng.standard_normal(s) for s in shapes]
            v = [rng.standard_normal(s) for s in shapes]
            buf = pack_block_state(w, v)
            assert buf.nbytes == block_state_bytes(dims, pr, row, momentum=True)
            w2, v2 = unpack_block_state(buf, dims, pr, row, momentum=True)
            for a, b in zip(w + v, w2 + v2):
                assert a.tobytes() == b.tobytes()
            w3, v3 = unpack_block_state(
                pack_block_state(w, None), dims, pr, row
            )
            assert v3 is None
            for a, b in zip(w, w3):
                assert a.tobytes() == b.tobytes()


class _FakeCheckpoint:
    def __init__(self, nbytes):
        self.step = 0
        self.weights = [np.zeros(nbytes // 8)]
        self.velocity = None
        self.losses = ()


class TestShardStore:
    def _meta(self, step, row=0, col=0, pr=2, pc=4, k=3, r=1):
        return ShardMeta(step, row, col, pr, pc, k, r, 0)

    def test_steps_descriptors_and_bytes(self):
        store = ShardStore()
        store.add_replica(0, _FakeCheckpoint(80))
        chunk = np.arange(16, dtype=np.uint8)
        store.add_shard(2, self._meta(2, row=1, col=3), chunk, (0.5,))
        assert store.steps() == [0, 2]
        descs = store.descriptors()
        assert all(len(d) == CENSUS_FIELDS for d in descs)
        assert descs[0] == (0, MODE_REPLICATE, 0, 0, 0, 0, 0, 0)
        assert descs[1] == (2, MODE_ERASURE, 1, 3, 2, 4, 3, 1)
        assert store.stored_bytes() == 80 + 16

    def test_truncate_drops_newer_holdings(self):
        store = ShardStore()
        store.add_replica(0, _FakeCheckpoint(8))
        store.add_shard(2, self._meta(2), np.zeros(4, dtype=np.uint8), ())
        store.add_shard(4, self._meta(4), np.zeros(4, dtype=np.uint8), ())
        store.truncate(2)
        assert store.steps() == [0, 2]
        assert store.get(4) is None


class TestCensusChoose:
    def _shard_desc(self, step, row, col, pr=2, pc=4, k=3, r=1):
        return (step, MODE_ERASURE, row, col, pr, pc, k, r)

    def _replica(self, step):
        return (step, MODE_REPLICATE, 0, 0, 0, 0, 0, 0)

    def test_replica_needs_every_survivor(self):
        descs = [[self._replica(0), self._replica(4)], [self._replica(0)]]
        chosen, newest, geometry = census_choose(descs)
        assert (chosen, newest, geometry) == (0, 4, None)

    def test_erasure_k_of_n_recoverable(self):
        # 2x4 grid, k=3: rank (0,1) lost, each stripe keeps 3 chunks.
        descs = []
        for row in range(2):
            for col in range(4):
                if (row, col) == (0, 1):
                    continue
                descs.append([self._replica(0), self._shard_desc(4, row, col)])
        chosen, newest, geometry = census_choose(descs)
        assert (chosen, newest) == (4, 4)
        assert geometry == (2, 4, 3, 1)

    def test_degrades_past_short_stripe(self):
        # Rank (0,1) is lost; survivor (0,2) additionally truncated its
        # step-4 shard.  Row 0 then has 3 >= k step-2 chunks but only 2
        # step-4 chunks: the census must skip step 4 and pick step 2.
        descs = []
        for row in range(2):
            for col in range(4):
                if (row, col) == (0, 1):
                    continue
                held = [self._replica(0), self._shard_desc(2, row, col)]
                if (row, col) != (0, 2):
                    held.append(self._shard_desc(4, row, col))
                descs.append(held)
        chosen, newest, geometry = census_choose(descs)
        assert chosen == 2 and newest == 4
        assert geometry == (2, 4, 3, 1)

    def test_step0_replica_is_last_resort(self):
        descs = [[self._replica(0), self._shard_desc(4, 0, 0)]]
        chosen, newest, geometry = census_choose(descs)
        assert (chosen, newest, geometry) == (0, 4, None)

    def test_empty_census_raises(self):
        with pytest.raises(ConfigurationError):
            census_choose([[], []])
