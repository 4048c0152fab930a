"""Tests for the linear detectors (MRC / ZF / MMSE)."""

import numpy as np
import pytest

from repro.detectors.linear import MMSEDetector, MRCDetector, ZeroForcingDetector
from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem


@pytest.fixture
def qam4():
    return Constellation.qam(4)


def noiseless_frame(system, seed):
    rng = np.random.default_rng(seed)
    return system.random_frame(300.0, rng)  # effectively noiseless


class TestZeroForcing:
    def test_noiseless_exact(self, qam4):
        system = MIMOSystem(4, 4, qam4)
        det = ZeroForcingDetector(qam4)
        for seed in range(5):
            frame = noiseless_frame(system, seed)
            det.prepare(frame.channel)
            result = det.detect(frame.received)
            assert np.array_equal(result.indices, frame.symbol_indices)

    def test_overdetermined_noiseless_exact(self, qam4):
        system = MIMOSystem(3, 6, qam4)
        det = ZeroForcingDetector(qam4)
        frame = noiseless_frame(system, 1)
        det.prepare(frame.channel)
        assert np.array_equal(det.detect(frame.received).indices, frame.symbol_indices)

    def test_metric_is_residual(self, qam4, rng):
        system = MIMOSystem(4, 4, qam4)
        frame = system.random_frame(10.0, rng)
        det = ZeroForcingDetector(qam4)
        det.prepare(frame.channel)
        result = det.detect(frame.received)
        expected = np.linalg.norm(frame.received - frame.channel @ result.symbols) ** 2
        assert result.metric == pytest.approx(expected)

    def test_no_stats(self, qam4, rng):
        system = MIMOSystem(4, 4, qam4)
        frame = system.random_frame(10.0, rng)
        det = ZeroForcingDetector(qam4)
        det.prepare(frame.channel)
        assert det.detect(frame.received).stats is None

    def test_requires_prepare(self, qam4):
        with pytest.raises(RuntimeError):
            ZeroForcingDetector(qam4).detect(np.zeros(4, complex))

    def test_received_length_checked(self, qam4, rng):
        system = MIMOSystem(4, 4, qam4)
        frame = system.random_frame(10.0, rng)
        det = ZeroForcingDetector(qam4)
        det.prepare(frame.channel)
        with pytest.raises(ValueError):
            det.detect(np.zeros(5, complex))


class TestMMSE:
    def test_noiseless_matches_zf(self, qam4):
        system = MIMOSystem(4, 4, qam4)
        zf = ZeroForcingDetector(qam4)
        mmse = MMSEDetector(qam4)
        frame = noiseless_frame(system, 3)
        zf.prepare(frame.channel, noise_var=0.0)
        mmse.prepare(frame.channel, noise_var=0.0)
        assert np.array_equal(
            zf.detect(frame.received).indices, mmse.detect(frame.received).indices
        )

    def test_mmse_beats_zf_at_low_snr(self, qam4):
        """Average over many frames: MMSE's regularisation helps."""
        system = MIMOSystem(8, 8, qam4)
        rng = np.random.default_rng(0)
        zf_err = mmse_err = 0
        for _ in range(60):
            frame = system.random_frame(6.0, rng)
            zf = ZeroForcingDetector(qam4)
            mmse = MMSEDetector(qam4)
            zf.prepare(frame.channel, noise_var=frame.noise_var)
            mmse.prepare(frame.channel, noise_var=frame.noise_var)
            zf_err += int(
                np.count_nonzero(
                    zf.detect(frame.received).indices != frame.symbol_indices
                )
            )
            mmse_err += int(
                np.count_nonzero(
                    mmse.detect(frame.received).indices != frame.symbol_indices
                )
            )
        assert mmse_err <= zf_err

    def test_rejects_bad_es(self, qam4):
        with pytest.raises(ValueError):
            MMSEDetector(qam4, es=0.0)

    def test_negative_noise_var_rejected(self, qam4, rng):
        det = MMSEDetector(qam4)
        with pytest.raises(ValueError):
            det.prepare(np.eye(4, dtype=complex), noise_var=-1.0)


class TestMRC:
    def test_single_stream_noiseless_exact(self, qam4):
        """With one transmitter there is no interference: MRC is optimal."""
        system = MIMOSystem(1, 8, qam4)
        det = MRCDetector(qam4)
        for seed in range(5):
            frame = noiseless_frame(system, seed)
            det.prepare(frame.channel)
            assert np.array_equal(
                det.detect(frame.received).indices, frame.symbol_indices
            )

    def test_worse_than_zf_with_interference(self, qam4):
        system = MIMOSystem(8, 8, qam4)
        rng = np.random.default_rng(1)
        zf_err = mrc_err = 0
        for _ in range(40):
            frame = system.random_frame(25.0, rng)
            zf = ZeroForcingDetector(qam4)
            mrc = MRCDetector(qam4)
            zf.prepare(frame.channel)
            mrc.prepare(frame.channel)
            zf_err += int(
                np.count_nonzero(
                    zf.detect(frame.received).indices != frame.symbol_indices
                )
            )
            mrc_err += int(
                np.count_nonzero(
                    mrc.detect(frame.received).indices != frame.symbol_indices
                )
            )
        assert mrc_err > zf_err

    def test_zero_column_rejected(self, qam4):
        h = np.eye(4, dtype=complex)
        h[:, 2] = 0
        det = MRCDetector(qam4)
        with pytest.raises(np.linalg.LinAlgError):
            det.prepare(h)


class TestBatchDetection:
    @pytest.mark.parametrize(
        "detector_cls", [ZeroForcingDetector, MMSEDetector, MRCDetector]
    )
    def test_batch_matches_sequential(self, detector_cls, qam4, rng):
        """The batch path equals per-vector detection."""
        system = MIMOSystem(4, 4, qam4)
        frame0 = system.random_frame(12.0, rng)
        det = detector_cls(qam4)
        det.prepare(frame0.channel, noise_var=frame0.noise_var)
        block = np.stack(
            [
                system.random_frame(12.0, rng, channel=frame0.channel).received
                for _ in range(6)
            ]
        )
        batched = det.decode_batch(block)
        for i, row in enumerate(block):
            single = det.detect(row)
            assert np.array_equal(batched[i].indices, single.indices)
            assert batched[i].metric == pytest.approx(single.metric, rel=1e-9)
            assert np.array_equal(batched[i].bits, single.bits)

    def test_batch_shape_validated(self, qam4, rng):
        system = MIMOSystem(4, 4, qam4)
        frame = system.random_frame(10.0, rng)
        det = ZeroForcingDetector(qam4)
        det.prepare(frame.channel)
        with pytest.raises(ValueError):
            det.decode_batch(np.zeros((3, 5), complex))
        with pytest.raises(ValueError):
            det.decode_batch(np.zeros(4, complex))

    def test_batch_requires_prepare(self, qam4):
        with pytest.raises(RuntimeError):
            ZeroForcingDetector(qam4).decode_batch(np.zeros((2, 4), complex))


class TestResultContract:
    @pytest.mark.parametrize(
        "detector_cls", [ZeroForcingDetector, MMSEDetector, MRCDetector]
    )
    def test_result_fields_consistent(self, detector_cls, qam4, rng):
        system = MIMOSystem(4, 4, qam4)
        frame = system.random_frame(15.0, rng)
        det = detector_cls(qam4)
        det.prepare(frame.channel, noise_var=frame.noise_var)
        result = det.detect(frame.received)
        assert result.indices.shape == (4,)
        assert result.symbols.shape == (4,)
        assert result.bits.shape == (8,)
        assert np.array_equal(result.symbols, qam4.points[result.indices])
        assert np.array_equal(result.bits, qam4.indices_to_bits(result.indices))
        assert result.metric >= 0.0
