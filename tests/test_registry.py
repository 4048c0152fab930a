"""The declarative detector registry: specs, pickling, equivalence, replay.

The registry's contract (see ``repro.detectors.registry``):

- ``spec(kind, const, **params)`` validates the kind and the parameter
  names eagerly, so typos fail at construction time, not in a worker.
- Every :class:`DetectorSpec` survives a pickle round trip — including
  across a real ``ProcessPoolExecutor`` — and the rebuilt spec produces
  a detector whose ``detect()`` output is bit-identical to direct
  construction.
- Every kind's ``decode_batch`` equals a ``detect`` loop bit for bit.
- Every entry flagged ``fpga_replayable`` emits a batch trace the FPGA
  pipeline simulator accepts, with the per-stage cycle breakdown summing
  exactly to the total, and one trace event per GEMM call.
"""

from __future__ import annotations

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.cli import main
from repro.detectors.registry import (
    DetectorSpec,
    detector_entries,
    detector_entry,
    spec,
)
from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem

N_ANT = 4
SNR_DB = 8.0


def _frame(seed: int = 3):
    system = MIMOSystem(N_ANT, N_ANT, "4qam")
    rng = np.random.default_rng(seed)
    return system, system.random_frame(SNR_DB, rng)


def _decode(detector, frame):
    detector.prepare(frame.channel, noise_var=frame.noise_var)
    return detector.detect(frame.received)


def _pool_decode(s: DetectorSpec, channel, noise_var, received):
    """Worker-side: rebuild the detector from the shipped spec."""
    detector = s()
    detector.prepare(channel, noise_var=noise_var)
    return detector.detect(received).indices


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        const = Constellation.qam(4)
        with pytest.raises(ValueError, match="unknown detector kind"):
            spec("warp-drive", const)

    def test_unknown_param_rejected_eagerly(self):
        const = Constellation.qam(4)
        with pytest.raises(ValueError, match="unknown parameter"):
            spec("sd", const, max_nodse=10)

    def test_entry_lookup_lists_known_kinds(self):
        with pytest.raises(ValueError, match="registered kinds"):
            detector_entry("nope")

    def test_params_sorted_for_stable_equality(self):
        const = Constellation.qam(4)
        a = spec("sd", const, alpha=2.0, max_nodes=100)
        b = spec("sd", const, max_nodes=100, alpha=2.0)
        assert a == b


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "kind", [entry.kind for entry in detector_entries()]
    )
    def test_pickle_round_trip_bit_identical(self, kind):
        const = Constellation.qam(4)
        system, frame = _frame()
        s = spec(kind, const)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        direct = detector_entry(kind).factory(const, **dict(detector_entry(kind).defaults))
        r_spec = _decode(clone(), frame)
        r_direct = _decode(direct, frame)
        assert type(clone()) is type(direct)
        assert np.array_equal(r_spec.indices, r_direct.indices)
        assert np.array_equal(r_spec.bits, r_direct.bits)
        assert r_spec.metric == r_direct.metric
        if r_spec.stats is not None:
            assert r_spec.stats.nodes_expanded == r_direct.stats.nodes_expanded
            assert r_spec.stats.gemm_calls == r_direct.stats.gemm_calls
            assert r_spec.stats.radius_trace == r_direct.stats.radius_trace

    def test_spec_param_overrides_apply(self):
        const = Constellation.qam(4)
        detector = spec("sd", const, alpha=3.0, max_nodes=777)()
        assert detector.policy.max_nodes == 777
        assert detector.engine.radius_policy.alpha == 3.0

    def test_process_pool_round_trip(self):
        system, frame = _frame()
        s = spec("sd", system.constellation)
        local = _decode(s(), frame).indices
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(
                _pool_decode, s, frame.channel, frame.noise_var, frame.received
            ).result()
        assert np.array_equal(local, remote)


#: ``DecodeStats`` fields that hold measured host time, not search work.
HOST_TIME_FIELDS = {"wall_time_s", "gemm_time_s"}


class TestBatchContract:
    @pytest.mark.parametrize(
        "kind", [entry.kind for entry in detector_entries()]
    )
    def test_decode_batch_equals_detect_loop(self, kind):
        """``decode_batch`` of three frames equals a ``detect`` loop:
        indices, metric, bits and every ``DecodeStats`` field but the
        measured host times."""
        system, frame = _frame()
        rng = np.random.default_rng(21)
        received = np.stack(
            [frame.received]
            + [
                system.random_frame(SNR_DB, rng, channel=frame.channel).received
                for _ in range(2)
            ]
        )
        detector = spec(kind, system.constellation)()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        looped = [detector.detect(row) for row in received]
        batched = detector.decode_batch(received)
        assert len(batched) == len(looped)
        for one, bat in zip(looped, batched):
            assert np.array_equal(one.indices, bat.indices)
            assert one.metric == bat.metric
            assert np.array_equal(one.bits, bat.bits)
            assert (one.stats is None) == (bat.stats is None)
            if one.stats is None:
                continue
            for f in dataclasses.fields(one.stats):
                if f.name not in HOST_TIME_FIELDS:
                    assert getattr(one.stats, f.name) == getattr(
                        bat.stats, f.name
                    ), f"{kind}: {f.name}"


class TestFpgaReplay:
    @pytest.mark.parametrize(
        "kind",
        [e.kind for e in detector_entries() if e.fpga_replayable],
    )
    def test_trace_replays_with_exact_stage_sum(self, kind):
        const = Constellation.qam(4)
        system, frame = _frame()
        result = _decode(spec(kind, const)(), frame)
        stats = result.stats
        assert stats is not None
        assert stats.batches, f"{kind} produced no batch trace"
        if detector_entry(kind).lattice != "complex":
            # Real-lattice representations search a 2M-level tree over
            # the per-dimension PAM alphabet.
            n_tx, order = 2 * N_ANT, int(round(np.sqrt(const.order)))
        else:
            n_tx, order = N_ANT, const.order
        pipe = FPGAPipeline(
            PipelineConfig.optimized(order),
            n_tx=n_tx,
            n_rx=n_tx,
            order=order,
        )
        report = pipe.decode_report(stats)
        breakdown = report.stage_breakdown()
        assert sum(breakdown.values()) == report.total_cycles

    @pytest.mark.parametrize("snr_db", [2.0, 8.0, 14.0])
    @pytest.mark.parametrize(
        "kind",
        [e.kind for e in detector_entries() if e.fpga_replayable],
    )
    def test_one_gemm_call_per_trace_event(self, kind, snr_db):
        # The CPU/GPU models charge one dispatch per GEMM call; that is
        # the trace length whenever a trace is recorded.
        system = MIMOSystem(N_ANT, N_ANT, "4qam")
        rng = np.random.default_rng(5)
        frame = system.random_frame(snr_db, rng)
        other = system.random_frame(snr_db, rng, channel=frame.channel)
        detector = spec(kind, system.constellation)()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        results = [detector.detect(f.received) for f in (frame, other)]
        results += detector.decode_batch(
            np.stack([frame.received, other.received])
        )
        for result in results:
            stats = result.stats
            assert len(stats.batches) > 0
            assert stats.gemm_calls == len(stats.batches), kind

    @pytest.mark.parametrize("kind", ["kbest", "fsd"])
    def test_sweep_decoders_batch_matches_sequential(self, kind):
        # KBest/FSD gained the fused decode_batch path by moving onto the
        # shared engine; fused and sequential decoding must agree exactly.
        const = Constellation.qam(4)
        system, frame = _frame()
        rng = np.random.default_rng(11)
        other = system.random_frame(SNR_DB, rng, channel=frame.channel)
        detector = spec(kind, const)()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        sequential = [detector.detect(f.received) for f in (frame, other)]
        batched = detector.decode_batch(
            np.stack([frame.received, other.received])
        )
        for seq, bat in zip(sequential, batched):
            assert np.array_equal(seq.indices, bat.indices)
            assert seq.metric == bat.metric


class TestDetectorsSubcommand:
    def test_lists_every_kind_with_params_and_flags(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        for entry in detector_entries():
            assert f"{entry.kind}: " in out
        assert "alpha=2.0" in out
        assert "fpga-replay" in out
        assert "fig6" in out

    def test_lists_metric_and_lattice_axes(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        assert "metric       : linf" in out
        assert "lattice      : real-reordered" in out

    def test_exact_only_hides_approximate_kinds(self, capsys):
        assert main(["detectors", "--exact-only"]) == 0
        out = capsys.readouterr().out
        for entry in detector_entries():
            if entry.exact:
                assert f"{entry.kind}: " in out
            else:
                assert f"{entry.kind}: " not in out
        assert "sd-linf: " not in out
        assert "sd-real-reordered: " in out
