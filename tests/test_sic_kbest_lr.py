"""Tests for the SIC, K-best and LR-ZF detectors."""

import numpy as np
import pytest

from repro.core.radius import BabaiRadius
from repro.detectors.kbest import KBestDecoder
from repro.detectors.linear import ZeroForcingDetector
from repro.detectors.lr import LRZFDetector
from repro.detectors.ml import MLDetector
from repro.detectors.sic import SICDetector
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem


def run_pair(system, detector, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    detector.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, detector.detect(frame.received), ml.detect(frame.received)


class TestSIC:
    def test_noiseless_exact(self):
        system = MIMOSystem(5, 5, "4qam")
        det = SICDetector(system.constellation)
        for seed in range(5):
            frame, res, _ = run_pair(system, det, 300.0, seed)
            assert np.array_equal(res.indices, frame.symbol_indices)

    def test_never_beats_ml(self):
        system = MIMOSystem(4, 4, "4qam")
        for seed in range(8):
            det = SICDetector(system.constellation)
            _, res, ml = run_pair(system, det, 6.0, seed)
            assert res.metric >= ml.metric - 1e-9

    def test_matches_babai_seeded_sd_start(self):
        """SIC(natural) equals the Babai point the SD seeds with."""
        system = MIMOSystem(5, 5, "4qam")
        rng = np.random.default_rng(1)
        frame = system.random_frame(6.0, rng)
        sic = SICDetector(system.constellation, ordering="natural")
        sic.prepare(frame.channel)
        sic_res = sic.detect(frame.received)
        sd = SphereDecoder(
            system.constellation, radius_policy=BabaiRadius()
        )
        sd.prepare(frame.channel, noise_var=frame.noise_var)
        sd_res = sd.detect(frame.received)
        # The SD starts at the SIC point, so its first radius equals the
        # SIC residual in the reduced domain.
        assert sd_res.stats.radius_trace[0] <= sic_res.metric + 1e-9

    def test_sqrd_ordering_beats_natural_on_average(self):
        system = MIMOSystem(8, 8, "4qam")
        rng = np.random.default_rng(2)
        nat_err = srt_err = 0
        for _ in range(80):
            frame = system.random_frame(14.0, rng)
            nat = SICDetector(system.constellation, ordering="natural")
            srt = SICDetector(system.constellation, ordering="sqrd")
            nat.prepare(frame.channel)
            srt.prepare(frame.channel)
            nat_err += int(
                np.count_nonzero(nat.detect(frame.received).bits != frame.bits)
            )
            srt_err += int(
                np.count_nonzero(srt.detect(frame.received).bits != frame.bits)
            )
        assert srt_err <= nat_err

    def test_validation(self):
        with pytest.raises(ValueError):
            SICDetector(Constellation.qam(4), ordering="random")
        with pytest.raises(RuntimeError):
            SICDetector(Constellation.qam(4)).detect(np.zeros(4, complex))


class TestKBest:
    def test_large_k_is_exact_ml(self):
        """K >= P^M keeps everything: identical to brute force."""
        system = MIMOSystem(3, 3, "4qam")
        for seed in range(5):
            det = KBestDecoder(system.constellation, k=64)
            _, res, ml = run_pair(system, det, 4.0, seed)
            assert res.metric == pytest.approx(ml.metric, rel=1e-9)

    def test_fixed_workload(self):
        """Same node counts regardless of SNR (the hardware property)."""
        system = MIMOSystem(5, 5, "4qam")
        counts = set()
        for snr in (0.0, 10.0, 30.0):
            det = KBestDecoder(system.constellation, k=8)
            _, res, _ = run_pair(system, det, snr, 0)
            counts.add(res.stats.nodes_expanded)
        assert len(counts) == 1

    def test_frontier_capped_at_k(self):
        system = MIMOSystem(6, 6, "4qam")
        det = KBestDecoder(system.constellation, k=8)
        _, res, _ = run_pair(system, det, 10.0, 0)
        assert res.stats.max_list_size <= 8

    def test_never_beats_ml(self):
        system = MIMOSystem(4, 4, "4qam")
        for seed in range(8):
            det = KBestDecoder(system.constellation, k=4)
            _, res, ml = run_pair(system, det, 5.0, seed)
            assert res.metric >= ml.metric - 1e-9

    def test_bigger_k_never_worse_metric(self):
        system = MIMOSystem(5, 5, "4qam")
        rng = np.random.default_rng(3)
        frame = system.random_frame(5.0, rng)
        metrics = []
        for k in (2, 8, 64):
            det = KBestDecoder(system.constellation, k=k)
            det.prepare(frame.channel)
            metrics.append(det.detect(frame.received).metric)
        assert metrics[1] <= metrics[0] + 1e-9
        assert metrics[2] <= metrics[1] + 1e-9

    def test_high_snr_recovers(self):
        system = MIMOSystem(6, 6, "16qam")
        det = KBestDecoder(system.constellation, k=16)
        frame = system.random_frame(60.0, np.random.default_rng(0))
        det.prepare(frame.channel)
        res = det.detect(frame.received)
        assert np.array_equal(res.indices, frame.symbol_indices)

    def test_trace_one_batch_per_level(self):
        system = MIMOSystem(5, 5, "4qam")
        det = KBestDecoder(system.constellation, k=8)
        _, res, _ = run_pair(system, det, 10.0, 0)
        assert [ev.level for ev in res.stats.batches] == [4, 3, 2, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            KBestDecoder(Constellation.qam(4), k=0)


class TestLRZF:
    def test_noiseless_exact(self):
        for mod in ("4qam", "16qam"):
            system = MIMOSystem(5, 5, mod)
            det = LRZFDetector(system.constellation)
            for seed in range(4):
                frame, res, _ = run_pair(system, det, 300.0, seed)
                assert np.array_equal(res.indices, frame.symbol_indices)

    def test_beats_plain_zf_at_high_snr(self):
        """LR restores diversity: clear win once noise is small."""
        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(4)
        zf_err = lr_err = 0
        for _ in range(120):
            frame = system.random_frame(22.0, rng)
            zf = ZeroForcingDetector(system.constellation)
            lr = LRZFDetector(system.constellation)
            zf.prepare(frame.channel)
            lr.prepare(frame.channel)
            zf_err += int(
                np.count_nonzero(zf.detect(frame.received).bits != frame.bits)
            )
            lr_err += int(
                np.count_nonzero(lr.detect(frame.received).bits != frame.bits)
            )
        assert lr_err < zf_err

    def test_never_beats_ml(self):
        system = MIMOSystem(4, 4, "4qam")
        for seed in range(6):
            det = LRZFDetector(system.constellation)
            _, res, ml = run_pair(system, det, 8.0, seed)
            assert res.metric >= ml.metric - 1e-9

    def test_rejects_non_square_qam(self):
        from repro.mimo.constellation import Constellation

        with pytest.raises(ValueError):
            LRZFDetector(Constellation.bpsk())

    def test_rejects_underdetermined(self):
        det = LRZFDetector(Constellation.qam(4))
        with pytest.raises(ValueError):
            det.prepare(np.zeros((3, 4), complex))

    def test_result_contract(self):
        system = MIMOSystem(4, 4, "16qam")
        det = LRZFDetector(system.constellation)
        frame, res, _ = run_pair(system, det, 15.0, 0)
        assert res.indices.shape == (4,)
        assert np.array_equal(res.symbols, system.constellation.points[res.indices])
        assert res.metric >= 0
