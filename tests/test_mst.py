"""Tests for the Meta State Table, including a decode replay."""

import numpy as np
import pytest

from repro.detectors.sphere import SphereDecoder
from repro.fpga.mst import ROOT_PARENT, MetaStateTable, MstCapacityError
from repro.mimo.system import MIMOSystem


class TestAllocation:
    def test_alloc_and_read_back(self):
        mst = MetaStateTable(n_levels=3, capacity=8)
        nid = mst.alloc(1, ROOT_PARENT, symbol_index=2, pd=0.5)
        assert mst.pd(nid) == 0.5
        assert mst.path(nid) == (2,)

    def test_parent_chain_path(self):
        mst = MetaStateTable(n_levels=3, capacity=8)
        a = mst.alloc(1, ROOT_PARENT, 3, 0.1)
        b = mst.alloc(2, a, 1, 0.4)
        c = mst.alloc(3, b, 0, 0.9)
        assert mst.path(c) == (3, 1, 0)

    def test_ids_encode_partition(self):
        mst = MetaStateTable(n_levels=3, capacity=8)
        a = mst.alloc(1, ROOT_PARENT, 0, 0.0)
        b = mst.alloc(2, a, 0, 0.0)
        assert mst.depth_of(a) == 1
        assert mst.depth_of(b) == 2

    def test_capacity_error(self):
        mst = MetaStateTable(n_levels=2, capacity=2)
        mst.alloc(1, ROOT_PARENT, 0, 0.0)
        mst.alloc(1, ROOT_PARENT, 1, 0.0)
        with pytest.raises(MstCapacityError):
            mst.alloc(1, ROOT_PARENT, 2, 0.0)

    def test_occupancy_and_high_water(self):
        mst = MetaStateTable(n_levels=2, capacity=4)
        mst.alloc(1, ROOT_PARENT, 0, 0.0)
        mst.alloc(1, ROOT_PARENT, 1, 0.0)
        assert mst.occupancy(1) == 2
        assert mst.occupancy(2) == 0
        assert mst.high_water == 2
        assert mst.total_allocated() == 2

    def test_reset(self):
        mst = MetaStateTable(n_levels=2, capacity=4)
        nid = mst.alloc(1, ROOT_PARENT, 0, 0.0)
        mst.reset()
        assert mst.total_allocated() == 0
        with pytest.raises(KeyError):
            mst.path(nid)

    def test_validation(self):
        mst = MetaStateTable(n_levels=2, capacity=4)
        with pytest.raises(ValueError):
            mst.alloc(1, 5, 0, 0.0)  # depth-1 must have ROOT_PARENT
        with pytest.raises(ValueError):
            mst.alloc(0, ROOT_PARENT, 0, 0.0)
        a = mst.alloc(1, ROOT_PARENT, 0, 0.0)
        with pytest.raises(ValueError):
            mst.alloc(3, a, 0, 0.0)  # parent must be at depth-1
        with pytest.raises(ValueError):
            mst.alloc(2, a, -1, 0.0)
        with pytest.raises(ValueError):
            mst.alloc(2, a, 0, -1.0)

    def test_unallocated_lookup_fails(self):
        mst = MetaStateTable(n_levels=2, capacity=4)
        with pytest.raises(KeyError):
            mst.pd(0)
        with pytest.raises(KeyError):
            mst.path(100)


class TestStorageSizing:
    def test_entry_bits_formula(self):
        mst = MetaStateTable(n_levels=10, capacity=16)
        # 4N + 3 words of 32 bits
        assert mst.entry_bits(n_rx=10, order=4) == (4 * 10 + 3) * 32

    def test_storage_scales_with_capacity(self):
        small = MetaStateTable(n_levels=10, capacity=16)
        large = MetaStateTable(n_levels=10, capacity=32)
        assert large.storage_bits(10, 4) == 2 * small.storage_bits(10, 4)

    def test_storage_scales_with_rx(self):
        mst = MetaStateTable(n_levels=10, capacity=16)
        assert mst.storage_bits(20, 4) > mst.storage_bits(10, 4)


class TestDecodeReplay:
    def test_replay_decoder_trace_through_mst(self):
        """Mirror a real decode in the MST and verify path reconstruction.

        This is the functional argument that the MST can hold the search
        tree the decoder builds: every expansion's children are allocated
        with parent links, and the winning leaf's path must reconstruct
        the decoder's answer.
        """
        system = MIMOSystem(5, 5, "4qam")
        frame = system.random_frame(8.0, np.random.default_rng(0))
        decoder = SphereDecoder(system.constellation, strategy="dfs")
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        result = decoder.detect(frame.received)

        # Re-run the same search manually, mirroring into the MST.
        from repro.core.gemm import ChannelKernel
        from repro.mimo.preprocessing import effective_receive, qr_decompose

        qr = qr_decompose(frame.channel)
        ybar = effective_receive(qr, frame.received)
        kernel = ChannelKernel(qr.r, system.constellation)
        mst = MetaStateTable(n_levels=5, capacity=4096)
        best_pd = np.inf
        best_id = None
        # stack holds (mst_id or ROOT_PARENT, level, pd, path)
        stack = [(ROOT_PARENT, 4, 0.0, ())]
        while stack:
            parent_id, level, pd, path = stack.pop()
            if pd >= best_pd:
                continue
            arr = np.array([path], dtype=np.int64).reshape(1, len(path))
            pds = kernel.expand(level, arr, np.array([pd]), ybar[level])[0]
            order = np.argsort(pds, kind="stable")
            depth = 5 - level
            for c in order[::-1]:
                if pds[c] >= best_pd:
                    continue
                nid = mst.alloc(depth, parent_id, int(c), float(pds[c]))
                if level == 0:
                    if pds[c] < best_pd:
                        best_pd = float(pds[c])
                        best_id = nid
                else:
                    stack.append((nid, level - 1, float(pds[c]), path + (int(c),)))
        assert best_id is not None
        # MST path is root-first; decoder indices are ascending-level.
        recovered = np.array(mst.path(best_id)[::-1])
        assert np.array_equal(qr.unpermute(recovered), result.indices)
        assert best_pd == pytest.approx(
            np.linalg.norm(ybar - qr.r @ system.constellation.points[recovered]) ** 2,
            rel=1e-9,
        )
