"""Unit tests for repro.workloads.trace."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.mem.address import core_address_base
from repro.workloads.trace import Trace


def mk(gaps=(1, 2, 3), addrs=(10, 20, 10), writes=(0, 1, 0)):
    return Trace(np.array(gaps), np.array(addrs), np.array(writes, dtype=bool), name="t")


class TestValidation:
    def test_valid(self):
        t = mk()
        assert len(t) == 3

    def test_length_mismatch(self):
        with pytest.raises(TraceError):
            Trace(np.array([1]), np.array([1, 2]), np.array([True, False]))

    def test_empty(self):
        with pytest.raises(TraceError):
            Trace(np.array([]), np.array([]), np.array([], dtype=bool))

    def test_zero_gap_rejected(self):
        with pytest.raises(TraceError):
            mk(gaps=(0, 1, 1))

    def test_negative_addr_rejected(self):
        with pytest.raises(TraceError):
            mk(addrs=(-1, 2, 3))


class TestDerived:
    def test_instructions(self):
        assert mk().instructions == 6

    def test_footprint(self):
        assert mk().footprint_blocks == 2
        assert mk().footprint_bytes(64) == 128

    def test_write_fraction(self):
        assert mk().write_fraction == pytest.approx(1 / 3)

    def test_apki(self):
        assert mk().accesses_per_kilo_instruction() == pytest.approx(500.0)

    def test_set_histogram(self):
        t = mk(addrs=(0, 4, 8))
        h = t.set_histogram(4)
        assert h[0] == 3

    @pytest.mark.parametrize("bad", [0, -4, 3, 6, 12])
    def test_set_histogram_rejects_non_pow2(self, bad):
        # The index mask `addrs & (num_sets - 1)` is a modulo only for
        # positive powers of two; anything else silently mis-bins.
        with pytest.raises(TraceError):
            mk().set_histogram(bad)

    def test_set_histogram_pow2_counts_sum_to_len(self):
        t = mk(addrs=(1, 5, 7))
        for num_sets in (1, 2, 4, 16):
            h = t.set_histogram(num_sets)
            assert h.sum() == len(t)
            assert len(h) == num_sets


class TestTransforms:
    def test_rebase_offsets_addresses(self):
        t = mk()
        r = t.rebase(2)
        assert (r.addrs == t.addrs + core_address_base(2)).all()
        assert (r.gaps == t.gaps).all()

    def test_rebase_core0_identity_addresses(self):
        t = mk()
        assert (t.rebase(0).addrs == t.addrs).all()

    def test_head(self):
        assert len(mk().head(2)) == 2
        assert len(mk().head(10)) == 3
        with pytest.raises(TraceError):
            mk().head(0)

    def test_concat(self):
        t = mk().concat(mk())
        assert len(t) == 6

    def test_iteration(self):
        rows = list(mk())
        assert rows[0] == (1, 10, False)
        assert rows[1] == (2, 20, True)

    def test_immutable_arrays_shared_on_rebase(self):
        t = mk()
        r = t.rebase(1)
        assert r.gaps is t.gaps  # gaps unchanged -> shared, no copy
