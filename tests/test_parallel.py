"""Tests for the multi-PE partitioned sphere decoder (section V extension)."""

import numpy as np
import pytest

from repro.core.radius import ESCALATION_FACTOR, InfiniteRadius, NoiseScaledRadius
from repro.core.stats import DecodeStats
from repro.core.traversal import DfsPolicy, PartitionedPolicy, TraversalEngine
from repro.detectors.engine import EngineDetector
from repro.detectors.ml import MLDetector
from repro.detectors.partitioned import PartitionedSphereDecoder
from repro.detectors.sphere import SphereDecoder
from repro.mimo.system import MIMOSystem
from repro.obs import NULL_TRACER, PHASE_SPAN, Tracer, use_tracer


def run_pair(system, decoder, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, decoder.detect(frame.received), ml.detect(frame.received)


class TestExactness:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ml(self, n_pes, seed):
        system = MIMOSystem(5, 5, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=n_pes)
        _, par, ml = run_pair(system, decoder, 6.0, seed)
        assert par.metric == pytest.approx(ml.metric, rel=1e-9)
        assert np.array_equal(par.indices, ml.indices)

    def test_matches_ml_16qam(self):
        system = MIMOSystem(3, 3, "16qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=4)
        _, par, ml = run_pair(system, decoder, 8.0, 0)
        assert np.array_equal(par.indices, ml.indices)

    def test_matches_ml_with_noise_radius(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation,
            n_pes=4,
            radius_policy=NoiseScaledRadius(alpha=2.0),
        )
        for seed in range(3):
            _, par, ml = run_pair(system, decoder, 6.0, seed)
            # Noise-scaled radius may erase; the decoder falls back to
            # Babai then. With alpha=2 erasure is rare; accept ML or a
            # metric no better than ML.
            assert par.metric >= ml.metric - 1e-9

    def test_empty_noise_scaled_sphere_escalates(self):
        """A recorded case whose first noise-scaled sphere holds no leaf
        (BPSK 2x2 at 30 dB, alpha 2, 9 PEs; sweep_cases.json partitioned
        case 35, frame 1) escalates the radius, as sd and sd-dfs do,
        and decodes to the ML point untruncated."""
        system = MIMOSystem(2, 2, "bpsk")
        rng = np.random.default_rng(1603143781)
        channel = system.channel_model.draw_channel(rng)
        received = [
            system.random_frame(30.0, rng, channel=channel).received
            for _ in range(2)
        ]
        decoder = PartitionedSphereDecoder(
            system.constellation,
            n_pes=9,
            radius_policy=NoiseScaledRadius(alpha=2.0),
        )
        decoder.prepare(channel, noise_var=system.noise_var(30.0))
        ml = MLDetector(system.constellation)
        ml.prepare(channel)
        result = decoder.detect(received[1])
        assert np.array_equal(result.indices, ml.detect(received[1]).indices)
        assert result.stats.truncated == 0
        trace = result.stats.radius_trace
        assert trace[1] == trace[0] * ESCALATION_FACTOR
        assert result.stats.radius_updates == 1

    @pytest.mark.parametrize("n_pes", [1, 3, 16])
    def test_linf_engine_matches_sorted_dfs(self, n_pes):
        """On a TraversalEngine under the linf metric the partitioned
        search is exact like the sorted DFS: same optimal metric."""
        system = MIMOSystem(4, 4, "16qam")
        frame = system.random_frame(10.0, np.random.default_rng(n_pes))
        q, r = np.linalg.qr(frame.channel)
        ybar = q.conj().T @ frame.received
        bounds = []
        for policy in (DfsPolicy(), PartitionedPolicy(n_pes=n_pes)):
            engine = TraversalEngine(
                system.constellation, policy,
                radius_policy=InfiniteRadius(), metric="linf",
            )
            _, bound = engine.solve(r, ybar, 0.0, DecodeStats(), NULL_TRACER)
            bounds.append(bound)
        assert bounds[0] == bounds[1]

    @pytest.mark.parametrize("n_pes", [1, 2])
    def test_ties_break_as_in_the_sorted_dfs(self, n_pes):
        """Equal child PDs keep the sorted DFS's order: on an identity
        channel with zero receive values at the top two levels, the
        first leaf found (and so the returned point) is the DFS's."""
        const = MIMOSystem(3, 3, "4qam").constellation
        channel = np.eye(3, dtype=complex)
        received = np.array([const.points[2], 0.0, 0.0])
        results = []
        for decoder in (
            SphereDecoder(const, strategy="dfs", radius_policy=InfiniteRadius()),
            PartitionedSphereDecoder(
                const, n_pes=n_pes, radius_policy=InfiniteRadius()
            ),
        ):
            decoder.prepare(channel)
            results.append(decoder.detect(received))
        dfs, par = results
        assert np.array_equal(par.indices, dfs.indices)
        if n_pes == 1:
            assert par.stats.batches == dfs.stats.batches
            assert par.stats.radius_trace == dfs.stats.radius_trace

    def test_single_level_system(self):
        system = MIMOSystem(1, 3, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=4)
        _, par, ml = run_pair(system, decoder, 8.0, 0)
        assert np.array_equal(par.indices, ml.indices)


class TestParallelism:
    def test_pe_counts_recorded(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=4, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 1)
        assert len(decoder.last_pe_expansions) == 4
        # +1 for the shared root expansion.
        assert sum(decoder.last_pe_expansions) + 1 == par.stats.nodes_expanded

    def test_makespan_below_sequential_total(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=4, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 2)
        makespan = decoder.makespan_expansions()
        assert makespan < par.stats.nodes_expanded
        assert makespan >= par.stats.nodes_expanded / 4 - 1

    def test_makespan_requires_decode(self):
        decoder = PartitionedSphereDecoder(MIMOSystem(3, 3).constellation)
        with pytest.raises(RuntimeError):
            decoder.makespan_expansions()

    def test_sync_events_counted(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation, n_pes=2, radius_policy=InfiniteRadius()
        )
        _, par, _ = run_pair(system, decoder, 4.0, 3)
        assert decoder.last_sync_events == par.stats.radius_updates
        assert decoder.last_sync_events >= 1

    def test_more_pes_never_increase_makespan_much(self):
        """Makespan is non-increasing in PEs up to work-stealing losses."""
        system = MIMOSystem(6, 6, "4qam")
        rng = np.random.default_rng(4)
        frame = system.random_frame(4.0, rng)
        makespans = {}
        for n_pes in (1, 2, 4):
            decoder = PartitionedSphereDecoder(
                system.constellation,
                n_pes=n_pes,
                radius_policy=InfiniteRadius(),
            )
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            decoder.detect(frame.received)
            makespans[n_pes] = decoder.makespan_expansions()
        assert makespans[2] <= makespans[1]
        assert makespans[4] <= makespans[2] * 1.1

    def test_max_rounds_truncates(self):
        system = MIMOSystem(8, 8, "4qam")
        decoder = PartitionedSphereDecoder(
            system.constellation,
            n_pes=2,
            radius_policy=InfiniteRadius(),
            max_rounds=2,
        )
        _, par, _ = run_pair(system, decoder, 0.0, 0)
        assert par.stats.truncated >= 1
        assert par.indices.shape == (8,)


class TestContract:
    def test_is_an_engine_detector(self):
        assert issubclass(PartitionedSphereDecoder, EngineDetector)
        for method in ("prepare", "detect"):
            assert method not in vars(PartitionedSphereDecoder), method

    def test_traced_decode_records_shell_spans_only(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=4)
        frame = system.random_frame(4.0, np.random.default_rng(3))
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer:
            stats = decoder.detect(frame.received).stats
        assert {e.phase for e in tracer.events} == {PHASE_SPAN}
        assert sorted(e.name for e in tracer.events) == [
            "sd.detect", "sd.search", "sd.solve",
        ]
        (solve,) = tracer.spans("sd.solve")
        assert solve.args["strategy"] == "partitioned"
        assert stats.gemm_calls > len(tracer.events)

    def test_requires_prepare(self):
        decoder = PartitionedSphereDecoder(MIMOSystem(3, 3).constellation)
        with pytest.raises(RuntimeError):
            decoder.detect(np.zeros(3, complex))

    def test_invalid_npes(self):
        with pytest.raises(ValueError):
            PartitionedSphereDecoder(MIMOSystem(3, 3).constellation, n_pes=0)

    def test_trace_recorded(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = PartitionedSphereDecoder(system.constellation, n_pes=2)
        _, par, _ = run_pair(system, decoder, 8.0, 0)
        assert par.stats.batches
        assert sum(ev.pool_size for ev in par.stats.batches) == (
            par.stats.nodes_expanded
        )
