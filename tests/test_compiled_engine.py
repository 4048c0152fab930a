"""Compiled traversal engine: selection axis, fallback, timing semantics.

Bit-identity of the fused kernels against the NumPy reference engine is
covered by the parameterized golden-decode suite (``test_nodepool.py``)
and the ML-oracle conformance suite (``test_ml_oracle.py``), and for
sorted DFS and Best-FS by a property test here that draws random
channels, radius policies, pool sizes and node caps. The rest of this
module tests the machinery *around* the kernels: the ``engine`` axis
through the registry/CLI, graceful degradation without Numba (single
warning, numpy fallback), the hard-failure contract for explicit
requests, and the documented ``gemm_time_s`` semantics under the fused
kernels.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import compiled
from repro.core.compiled import (
    ENGINES,
    CompiledTraversalEngine,
    compiled_available,
    default_engine,
    require_compiled,
    reset_fallback_warning,
    resolve_engine,
    use_engine,
    warmup_kernels,
)
from repro.core.radius import (
    BabaiRadius,
    FixedRadius,
    InfiniteRadius,
    NoiseScaledRadius,
)
from repro.core.traversal import TraversalEngine, build_engine
from repro.detectors.registry import detector_entries, spec
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation
from repro.mimo.system import MIMOSystem
from repro.obs.metrics import MetricsRegistry, use_metrics

#: Kinds expected to offer the compiled engine (every EngineDetector
#: shell kind; ``partitioned`` orchestrates its own PEs and stays numpy).
COMPILED_KINDS = {
    "sd", "sd-bestfs", "sd-dfs", "bfs", "geosphere", "kbest", "fsd",
    "sphere-real", "sd-linf", "kbest-linf", "sd-real-reordered",
}


def _frame(seed=0, n=4, snr_db=8.0, modulation="4qam"):
    system = MIMOSystem(n, n, modulation)
    return system, system.random_frame(snr_db, np.random.default_rng(seed))


class TestEngineSelection:
    def test_engines_constant(self):
        assert ENGINES == ("numpy", "compiled")

    def test_default_engine_is_numpy(self):
        assert default_engine() == "numpy"

    def test_use_engine_sets_and_restores(self):
        with use_engine("compiled"):
            assert default_engine() == "compiled"
            with use_engine("numpy"):
                assert default_engine() == "numpy"
            assert default_engine() == "compiled"
        assert default_engine() == "numpy"

    def test_use_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="engine"):
            with use_engine("fpga"):
                pass

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("cuda")

    def test_resolve_none_follows_ambient(self):
        assert resolve_engine(None) == "numpy"
        if compiled_available():
            with use_engine("compiled"):
                assert resolve_engine(None) == "compiled"

    def test_build_engine_rejects_unknown(self):
        from repro.core.traversal import BestFirstPolicy

        const = Constellation.qam(4)
        with pytest.raises(ValueError, match="engine"):
            build_engine("bogus", const, BestFirstPolicy())

    def test_build_engine_types(self):
        from repro.core.traversal import BestFirstPolicy

        const = Constellation.qam(4)
        numpy_engine = build_engine("numpy", const, BestFirstPolicy())
        assert type(numpy_engine) is TraversalEngine
        compiled_engine = build_engine("compiled", const, BestFirstPolicy())
        assert isinstance(compiled_engine, CompiledTraversalEngine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dfs_engine_rejects_other_metrics(self, engine):
        """Both leaf-first loops implement the ℓ₂ and ℓ∞ metrics only."""
        from repro.core.metric import PartialDistanceMetric
        from repro.core.traversal import BestFirstPolicy, DfsPolicy

        class L1(PartialDistanceMetric):
            name = "l1"

        for policy in (DfsPolicy(), BestFirstPolicy()):
            with pytest.raises(ValueError, match="'l2' and 'linf'"):
                build_engine(engine, Constellation.qam(4), policy, metric=L1())

    def test_detector_constructor_rejects_unknown_engine(self):
        from repro.detectors.sphere import SphereDecoder

        with pytest.raises(ValueError, match="engine"):
            SphereDecoder(Constellation.qam(4), engine="gpu")

    def test_prepare_engine_override(self, traversal_engine):
        from repro.detectors.sphere import SphereDecoder

        system, frame = _frame()
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(
            frame.channel, noise_var=frame.noise_var, engine=traversal_engine
        )
        assert decoder.engine == traversal_engine
        assert decoder.engine_name == traversal_engine

    def test_prepare_rejects_unknown_engine(self):
        from repro.detectors.sphere import SphereDecoder

        system, frame = _frame()
        decoder = SphereDecoder(system.constellation)
        with pytest.raises(ValueError, match="engine"):
            decoder.prepare(frame.channel, engine="asic")


class TestRegistryAxis:
    def test_engine_capable_kinds(self):
        kinds = {
            e.kind for e in detector_entries() if "compiled" in e.engines
        }
        assert kinds == COMPILED_KINDS

    def test_every_kind_supports_numpy(self):
        for entry in detector_entries():
            assert "numpy" in entry.engines, entry.kind

    def test_engine_param_present_iff_compiled_capable(self):
        for entry in detector_entries():
            has_param = "engine" in entry.defaults
            assert has_param == ("compiled" in entry.engines), entry.kind

    def test_spec_engine_roundtrip(self):
        const = Constellation.qam(4)
        detector = spec("sd", const, engine="numpy")()
        assert detector.engine == "numpy"
        detector = spec("sd", const)()
        assert detector.engine is None  # defers to ambient default


class TestFallback:
    def test_require_compiled_contract(self):
        if compiled_available():
            require_compiled()  # must not raise
        else:
            with pytest.raises(ValueError, match="(?i)numba"):
                require_compiled()

    def test_single_warning_then_silent_fallback(self, monkeypatch):
        """Unavailable compiled engine warns once, then degrades silently."""
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        monkeypatch.delenv(compiled.INTERPRET_ENV, raising=False)
        reset_fallback_warning()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert resolve_engine("compiled") == "numpy"
                assert resolve_engine("compiled") == "numpy"
            runtime = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(runtime) == 1
            assert "numba" in str(runtime[0].message).lower()
        finally:
            reset_fallback_warning()

    def test_fallback_decode_still_works(self, monkeypatch):
        """A detector pinned to compiled decodes fine without Numba."""
        monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
        monkeypatch.delenv(compiled.INTERPRET_ENV, raising=False)
        reset_fallback_warning()
        try:
            system, frame = _frame()
            reference = spec("sd", system.constellation)()
            reference.prepare(frame.channel, noise_var=frame.noise_var)
            expected = reference.detect(frame.received)

            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                detector = spec("sd", system.constellation, engine="compiled")()
                assert detector.engine_name == "numpy"
                detector.prepare(frame.channel, noise_var=frame.noise_var)
                result = detector.detect(frame.received)
            np.testing.assert_array_equal(result.indices, expected.indices)
            assert result.metric == expected.metric
        finally:
            reset_fallback_warning()

    def test_import_without_numba_subprocess(self):
        """The whole package imports and decodes with numba blocked."""
        script = textwrap.dedent(
            """
            import sys
            import warnings

            sys.modules["numba"] = None  # any import attempt raises

            import numpy as np

            from repro.core.compiled import (
                NUMBA_AVAILABLE, compiled_available, resolve_engine,
            )

            assert not NUMBA_AVAILABLE
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert resolve_engine("compiled") == "numpy"
                assert resolve_engine("compiled") == "numpy"
            runtime = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(runtime) == 1, [str(w.message) for w in caught]

            from repro.detectors.registry import spec
            from repro.mimo.system import MIMOSystem

            system = MIMOSystem(3, 3, "4qam")
            frame = system.random_frame(8.0, np.random.default_rng(0))
            det = spec("sd", system.constellation, engine="compiled")()
            det.prepare(frame.channel, noise_var=frame.noise_var)
            result = det.detect(frame.received)
            assert result.stats.nodes_expanded > 0
            print("OK")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "PATH": "/usr/bin:/bin",
                "REPRO_COMPILED_INTERPRET": "",
            },
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


class TestFusedKernelPath:
    """These force interpret mode so the fused path runs everywhere."""

    @pytest.fixture(autouse=True)
    def _interpret(self, monkeypatch):
        if not compiled.NUMBA_AVAILABLE:
            monkeypatch.setenv(compiled.INTERPRET_ENV, "1")

    def test_fused_kernel_actually_invoked(self, monkeypatch):
        """Guard against a silent fall-through to the numpy reference."""
        calls = {"n": 0}
        real = compiled._best_first_kernel

        def spy(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(compiled, "_best_first_kernel", spy)
        system, frame = _frame()
        detector = spec("sd-bestfs", system.constellation, engine="compiled")()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        detector.detect(frame.received)
        assert calls["n"] > 0

    def test_dfs_kernel_actually_invoked(self, monkeypatch):
        calls = {"n": 0}
        real = compiled._dfs_kernel

        def spy(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(compiled, "_dfs_kernel", spy)
        system, frame = _frame()
        detector = spec("sd", system.constellation, engine="compiled")()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        detector.detect(frame.received)
        assert calls["n"] > 0

    def test_sweep_policies_fall_back_to_reference_solve(self):
        """BFS/K-best/FSD have no fused kernel; compiled delegates."""
        system, frame = _frame()
        for kind in ("bfs", "kbest", "fsd"):
            detector = spec(kind, system.constellation, engine="compiled")()
            detector.prepare(frame.channel, noise_var=frame.noise_var)
            result = detector.detect(frame.received)
            assert result.stats.nodes_expanded > 0, kind

    def test_gemm_time_semantics(self):
        """Fused decodes time the whole kernel region into gemm_time_s."""
        system, frame = _frame(n=6)
        detector = spec("sd", system.constellation, engine="compiled")()
        detector.prepare(frame.channel, noise_var=frame.noise_var)
        stats = detector.detect(frame.received).stats
        assert stats.gemm_time_s > 0.0
        assert stats.gemm_time_s <= stats.wall_time_s
        assert 0.0 < stats.gemm_fraction <= 1.0
        assert stats.host_overhead_s >= 0.0

    def test_warmup_idempotent(self):
        warmup_kernels()
        warmup_kernels()  # second call is a no-op

    def test_max_nodes_truncation_matches_numpy(self):
        """The cumulative max_nodes cap behaves identically when fused."""
        system, frame = _frame(n=6, snr_db=4.0, modulation="16qam")

        def run(engine):
            detector = spec(
                "sd", system.constellation, max_nodes=25, engine=engine
            )()
            detector.prepare(frame.channel, noise_var=frame.noise_var)
            result = detector.detect(frame.received)
            return (
                tuple(int(i) for i in result.indices),
                float(result.metric),
                result.stats.nodes_expanded,
                result.stats.truncated,
            )

        assert run("numpy") == run("compiled")
        assert run("compiled")[3] >= 1  # the cap actually bit


class _NoEscalationRadius(FixedRadius):
    """A fixed radius that never grows: an empty sphere falls back to Babai."""

    def can_escalate(self) -> bool:
        return False


#: Radius policies of the leaf-first cross-check: exact seeds, and tiny
#: radii that force escalation rounds or the Babai fallback.
_RADII = {
    "babai": BabaiRadius,
    "infinite": InfiniteRadius,
    "noise-tiny-alpha": lambda: NoiseScaledRadius(alpha=1e-3),
    "fixed-tiny": lambda: FixedRadius(radius_sq=1e-4),
    "fixed-no-escalation": lambda: _NoEscalationRadius(radius_sq=1e-4),
}


def _cross_run(engine, system, channel, frames, noise_var, config):
    """Per-frame ``detect`` and one ``decode_batch`` under a live registry.

    Returns every result plus the registry's ``traversal.*`` series.
    """
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        decoder = SphereDecoder(
            system.constellation,
            strategy=config["strategy"],
            radius_policy=_RADII[config["radius"]](),
            pool_size=config["pool_size"],
            child_ordering=config["child_ordering"],
            max_nodes=config["max_nodes"],
            metric=config["metric"],
            lattice=config["lattice"],
            engine=engine,
        )
        decoder.prepare(channel, noise_var=noise_var)
        received = np.stack([fr.received for fr in frames])
        results = [decoder.detect(row) for row in received]
        results += decoder.decode_batch(received)
    snap = metrics.snapshot()
    series = {
        key: value
        for table in (snap.counters, snap.histograms)
        for key, value in table.items()
        if key[0].startswith("traversal.")
    }
    return results, series


def _fingerprint(result):
    st_ = result.stats
    return (
        tuple(int(i) for i in result.indices),
        float(result.metric).hex(),
        st_.nodes_expanded,
        st_.nodes_generated,
        st_.nodes_pruned,
        st_.leaves_reached,
        st_.radius_updates,
        st_.gemm_calls,
        st_.gemm_flops,
        st_.max_list_size,
        st_.truncated,
        [float(v).hex() for v in st_.radius_trace],
        (st_.batches.levels, st_.batches.pools),
    )


class TestLeafFirstCrossImplementation:
    """The scalar DFS and Best-FS loops against ``_dfs_kernel`` and
    ``_best_first_kernel``, decode for decode.

    The golden scenarios pin three fixed frames; this draws random
    channels, both strategies, pool sizes, both metrics and orders, both
    lattices, node caps and radius policies that escalate, truncate or
    fall back to Babai.
    """

    @pytest.fixture(autouse=True)
    def _interpret(self, monkeypatch):
        if not compiled.NUMBA_AVAILABLE:
            monkeypatch.setenv(compiled.INTERPRET_ENV, "1")

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        strategy=st.sampled_from(["dfs", "best-first"]),
        pool_size=st.integers(1, 64),
        n_tx=st.integers(1, 8),
        modulation=st.sampled_from(["bpsk", "4qam", "16qam"]),
        metric=st.sampled_from(["l2", "linf"]),
        child_ordering=st.sampled_from(["sorted", "natural"]),
        lattice=st.sampled_from(["complex", "real-reordered"]),
        max_nodes=st.one_of(st.none(), st.integers(1, 64)),
        radius=st.sampled_from(sorted(_RADII)),
        snr_db=st.sampled_from([6.0, 14.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_numpy_matches_compiled(
        self, strategy, pool_size, n_tx, modulation, metric, child_ordering,
        lattice, max_nodes, radius, snr_db, seed,
    ):
        if lattice != "complex" and modulation == "bpsk":
            lattice = "complex"  # real lattices need square QAM
        config = {
            "strategy": strategy,
            "pool_size": pool_size,
            "metric": metric,
            "child_ordering": child_ordering,
            "lattice": lattice,
            "max_nodes": max_nodes,
            "radius": radius,
        }
        system = MIMOSystem(n_tx, n_tx, modulation)
        rng = np.random.default_rng(seed)
        channel = system.channel_model.draw_channel(rng)
        frames = [
            system.random_frame(snr_db, rng, channel=channel) for _ in range(2)
        ]
        noise_var = system.noise_var(snr_db)
        runs = {
            engine: _cross_run(engine, system, channel, frames, noise_var, config)
            for engine in ("numpy", "compiled")
        }
        (ours, our_series), (theirs, their_series) = runs.values()
        assert [_fingerprint(r) for r in ours] == [
            _fingerprint(r) for r in theirs
        ]
        assert our_series == their_series
        # decode_batch repeats detect exactly.
        assert [_fingerprint(r) for r in ours[:2]] == [
            _fingerprint(r) for r in ours[2:]
        ]


class TestCLI:
    def test_detectors_listing_has_engines_column(self, capsys):
        from repro.cli import main

        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        assert "engines      : numpy, compiled" in out
        assert "partitioned" in out

    def test_decode_engine_numpy(self, capsys):
        from repro.cli import main

        assert main(
            ["decode", "--mimo", "3x3", "--engine", "numpy"]
        ) == 0
        assert "engine        : numpy" in capsys.readouterr().out

    @pytest.mark.skipif(
        compiled_available(), reason="needs a host without the compiled engine"
    )
    def test_decode_compiled_unavailable_exits_2(self, capsys):
        from repro.cli import main

        assert main(
            ["decode", "--mimo", "3x3", "--engine", "compiled"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "numba" in err.lower()
        assert "\n" == err[err.index("\n"):]  # single line

    @pytest.mark.skipif(
        compiled_available(), reason="needs a host without the compiled engine"
    )
    def test_experiment_compiled_unavailable_exits_2(self, capsys):
        from repro.cli import main

        assert main(
            ["experiment", "smoke", "--channels", "1", "--frames", "1",
             "--engine", "compiled"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_decode_compiled_interpret_mode(self, capsys, monkeypatch):
        monkeypatch.setenv(compiled.INTERPRET_ENV, "1")
        from repro.cli import main

        assert main(
            ["decode", "--mimo", "3x3", "--engine", "compiled"]
        ) == 0
        assert "engine        : compiled" in capsys.readouterr().out


class TestBenchReport:
    def test_traversal_report_compiled_rows(self, monkeypatch):
        monkeypatch.setenv(compiled.INTERPRET_ENV, "1")
        sys.path.insert(0, "benchmarks")
        try:
            import bench_kernels
        finally:
            sys.path.pop(0)
        report = bench_kernels.traversal_report(
            repeats=1, engines=("numpy", "compiled")
        )
        assert "compiled/dfs" in report["entries"]
        assert "compiled/best-first/pool8" in report["entries"]
        assert report["mean_nodes_per_sec_compiled"] > 0
        assert report["compiled_speedup"] > 0
        # Node counts are bit-identical across engines by contract.
        for name, entry in report["entries"].items():
            if name.startswith("compiled/"):
                twin = report["entries"][name[len("compiled/"):]]
                assert entry["nodes_expanded"] == twin["nodes_expanded"], name
