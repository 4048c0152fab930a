"""repro.obs.profile — call-tree folding, flamegraphs, run diffing.

The synthetic-trace tests pin the attribution semantics exactly (known
self/total times, overlap and recursion policies, the self-sum == wall
invariant); the exporter tests validate the collapsed-stack line format
and the speedscope JSON schema by round trip.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.obs import Tracer, use_tracer, write_jsonl
from repro.obs.export import chrome_trace, read_jsonl
from repro.obs.profile import (
    PATH_SEP,
    PROFILE_SCHEMA,
    SPEEDSCOPE_SCHEMA,
    ProfileTree,
    SpanProfiler,
    build_profile_tree,
    collapsed_stack_lines,
    diff_profiles,
    format_profile,
    format_profile_diff,
    load_profile,
    parse_collapsed,
    self_by_name,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)
from repro.obs.tracer import PHASE_SPAN, TraceEvent


def _span(name, ts, dur, *, tid=0, pid=0):
    return TraceEvent(
        phase=PHASE_SPAN, name=name, ts=ts, dur=dur, tid=tid, pid=pid
    )


#: mc.point [0, 10] containing sd.detect [1, 4] (which contains
#: sd.solve [1.5, 2.5]) and a second sd.detect [5, 7]. Events are
#: listed children-first, the order a tracer's exit-recorded buffer
#: actually has them in.
NESTED = [
    _span("sd.solve", 1.5, 1.0),
    _span("sd.detect", 1.0, 3.0),
    _span("sd.detect", 5.0, 2.0),
    _span("mc.point", 0.0, 10.0),
]


class TestBuildProfileTree:
    def test_nested_known_self_and_total(self):
        tree = build_profile_tree(NESTED)
        assert set(tree.roots) == {"mc.point"}
        point = tree.roots["mc.point"]
        assert point.count == 1
        assert point.total_s == pytest.approx(10.0)
        # 10 - (3 + 2) covered by the two detect calls
        assert point.self_s == pytest.approx(5.0)
        detect = point.children["sd.detect"]
        # two calls under the same parent aggregate into one node
        assert detect.count == 2
        assert detect.total_s == pytest.approx(5.0)
        assert detect.self_s == pytest.approx(4.0)  # 5 - solve's 1
        solve = detect.children["sd.solve"]
        assert (solve.count, solve.total_s, solve.self_s) == (1, 1.0, 1.0)
        assert tree.wall_s == pytest.approx(10.0)

    def test_self_times_sum_to_wall(self):
        tree = build_profile_tree(NESTED)
        assert tree.self_total_s == pytest.approx(tree.wall_s)

    def test_overlapping_spans_become_siblings(self):
        # B starts inside A but ends after it: not contained, so it must
        # not become A's child (totals would double-count the overlap).
        tree = build_profile_tree([_span("A", 0.0, 10.0), _span("B", 5.0, 10.0)])
        assert set(tree.roots) == {"A", "B"}
        assert tree.roots["A"].children == {}
        assert tree.wall_s == pytest.approx(20.0)
        assert tree.self_total_s == pytest.approx(20.0)

    def test_recursive_spans_stay_distinct_per_depth(self):
        tree = build_profile_tree([_span("a", 2.0, 4.0), _span("a", 0.0, 10.0)])
        outer = tree.roots["a"]
        inner = outer.children["a"]
        assert outer.self_s == pytest.approx(6.0)
        assert inner.self_s == pytest.approx(4.0)
        flat = self_by_name(tree)
        # self-times add exactly once per name; totals over-count under
        # recursion (10 + 4), which is why ranking/diffing uses self.
        assert flat["a"]["self_s"] == pytest.approx(10.0)
        assert flat["a"]["total_s"] == pytest.approx(14.0)
        assert flat["a"]["count"] == 2

    def test_lanes_nest_independently_and_roots_merge(self):
        # Identical (name, ts, dur) in two lanes: nesting is per
        # (pid, tid), aggregation merges roots by name across lanes.
        events = [
            _span("mc.shard", 0.0, 5.0, pid=1),
            _span("mc.shard", 0.0, 5.0, pid=2),
        ]
        tree = build_profile_tree(events)
        shard = tree.roots["mc.shard"]
        assert shard.count == 2
        assert shard.children == {}  # NOT nested despite containment
        assert tree.wall_s == pytest.approx(10.0)

    def test_non_span_events_ignored(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("mc.block"):
                tracer.instant("mc.heartbeat")
        tree = build_profile_tree(tracer.events)
        assert set(tree.roots) == {"mc.block"}
        assert tree.roots["mc.block"].children == {}

    def test_label_args_split_per_snr(self):
        events = [
            TraceEvent(
                phase=PHASE_SPAN, name="mc.point", ts=0.0, dur=4.0,
                args={"snr_db": 8.0},
            ),
            TraceEvent(phase=PHASE_SPAN, name="sd.detect", ts=0.5, dur=1.0),
            TraceEvent(
                phase=PHASE_SPAN, name="mc.point", ts=5.0, dur=2.0,
                args={"snr_db": 12.0},
            ),
        ]
        plain = build_profile_tree(events)
        assert plain.roots["mc.point"].count == 2  # merged without labels
        by_snr = build_profile_tree(events, label_args=("snr_db",))
        assert set(by_snr.roots) == {"mc.point[snr_db=8]", "mc.point[snr_db=12]"}
        low = by_snr.roots["mc.point[snr_db=8]"]
        assert low.self_s == pytest.approx(3.0)  # 4 - detect's 1
        assert set(low.children) == {"sd.detect"}  # unlabelled spans merge
        assert by_snr.wall_s == pytest.approx(plain.wall_s)
        assert by_snr.self_total_s == pytest.approx(by_snr.wall_s)

    def test_label_args_without_matching_arg_is_identity(self):
        tree = build_profile_tree(NESTED, label_args=("snr_db",))
        assert tree.to_dict() == build_profile_tree(NESTED).to_dict()

    def test_empty_tree(self):
        tree = build_profile_tree([])
        assert tree.roots == {} and tree.wall_s == 0.0
        assert "no spans" in format_profile(tree)

    def test_jsonl_round_trip_preserves_tree(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("mc.point"):
                with tracer.span("sd.detect"):
                    pass
                with tracer.span("sd.detect"):
                    pass
        direct = build_profile_tree(tracer.events)
        replayed = build_profile_tree(
            read_jsonl(write_jsonl(tracer, tmp_path / "events.jsonl"))
        )
        assert replayed.to_dict() == direct.to_dict()
        assert replayed.roots["mc.point"].children["sd.detect"].count == 2


class TestSerialization:
    def test_tree_dict_round_trip(self):
        tree = build_profile_tree(NESTED)
        tree.functions = {
            "mc.point": [
                {"function": "f.py:1(g)", "calls": 2, "tottime_s": 0.5,
                 "cumtime_s": 0.6}
            ]
        }
        doc = tree.to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        clone = ProfileTree.from_dict(json.loads(json.dumps(doc)))
        assert clone.to_dict() == doc
        assert [p for p, _n in clone.walk()] == [p for p, _n in tree.walk()]
        assert clone.wall_s == tree.wall_s
        assert clone.functions == tree.functions


class TestCollapsedStacks:
    def test_line_format_and_round_trip(self):
        lines = collapsed_stack_lines(build_profile_tree(NESTED))
        # `frame(;frame)* <integer microseconds>` — flamegraph.pl input
        for line in lines:
            assert re.fullmatch(r"[^ ]+(?:;[^ ]+)* \d+", line), line
        parsed = parse_collapsed(lines)
        assert parsed == {
            "mc.point": 5_000_000,
            PATH_SEP.join(["mc.point", "sd.detect"]): 4_000_000,
            PATH_SEP.join(["mc.point", "sd.detect", "sd.solve"]): 1_000_000,
        }

    def test_sub_microsecond_rows_omitted(self):
        tree = build_profile_tree(
            [_span("tiny", 0.0, 4e-7), _span("big", 1.0, 1.0)]
        )
        assert parse_collapsed(collapsed_stack_lines(tree)) == {"big": 1_000_000}

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_collapsed(["ok 12", "no-weight-here"])

    def test_write_round_trip(self, tmp_path):
        tree = build_profile_tree(NESTED)
        path = write_collapsed(tree, tmp_path / "flame" / "x.collapsed.txt")
        assert parse_collapsed(path.read_text().splitlines()) == parse_collapsed(
            collapsed_stack_lines(tree)
        )


class TestSpeedscope:
    def test_document_schema(self):
        doc = speedscope_document(build_profile_tree(NESTED), name="t")
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        profile = doc["profiles"][doc["activeProfileIndex"]]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "microseconds"
        frames = doc["shared"]["frames"]
        assert all(set(f) == {"name"} for f in frames)
        assert len(profile["samples"]) == len(profile["weights"]) == 3
        # every sample is a stack of valid frame indices, leaf last
        names = [f["name"] for f in frames]
        stacks = {
            tuple(names[i] for i in stack) for stack in profile["samples"]
        }
        assert ("mc.point", "sd.detect", "sd.solve") in stacks
        assert profile["startValue"] == 0
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert sum(profile["weights"]) == pytest.approx(10e6)

    def test_written_file_is_loadable_json(self, tmp_path):
        path = write_speedscope(
            build_profile_tree(NESTED), tmp_path / "x.speedscope.json"
        )
        doc = json.loads(path.read_text())
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert doc["profiles"][0]["endValue"] == pytest.approx(10e6)


class TestLoadProfile:
    def test_prefers_profile_json(self, tmp_path):
        from repro.obs.registry import PROFILE_FILE

        tree = build_profile_tree(NESTED)
        (tmp_path / PROFILE_FILE).write_text(json.dumps(tree.to_dict()))
        assert load_profile(tmp_path).to_dict() == tree.to_dict()

    def test_falls_back_to_chrome_trace(self, tmp_path):
        from repro.obs.registry import TRACE_FILE

        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("mc.point"):
                with tracer.span("sd.detect"):
                    pass
        (tmp_path / TRACE_FILE).write_text(json.dumps(chrome_trace(tracer)))
        tree = load_profile(tmp_path)
        assert set(tree.roots) == {"mc.point"}
        assert set(tree.roots["mc.point"].children) == {"sd.detect"}

    def test_neither_artifact_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="recorded neither"):
            load_profile(tmp_path)


def _tree(spans):
    """A ProfileTree from flat ``(name, ts, dur)`` rows."""
    return build_profile_tree([_span(n, ts, d) for n, ts, d in spans])


class TestDiffProfiles:
    # Base: detect self 4, point self 6. Compared: detect self 7 (+3),
    # point self 5 (-1).
    A = _tree([("mc.point", 0.0, 10.0), ("sd.detect", 0.0, 4.0)])
    B = _tree([("mc.point", 0.0, 12.0), ("sd.detect", 0.0, 7.0)])

    def test_sign_and_ranking(self):
        diff = diff_profiles(self.A, self.B)
        assert [r.span for r in diff.rows] == ["sd.detect", "mc.point"]
        detect, point = diff.rows
        assert detect.delta_s == pytest.approx(3.0)
        assert point.delta_s == pytest.approx(-1.0)
        assert diff.wall_a_s == pytest.approx(10.0)
        assert diff.wall_b_s == pytest.approx(12.0)
        assert diff.wall_delta_s == pytest.approx(2.0)
        assert diff.pct_of_wall(detect) == pytest.approx(30.0)

    def test_reversed_diff_negates(self):
        fwd = diff_profiles(self.A, self.B)
        rev = diff_profiles(self.B, self.A)
        by_span = {r.span: r for r in rev.rows}
        for row in fwd.rows:
            assert by_span[row.span].delta_s == pytest.approx(-row.delta_s)
        # ranking flips with the sign
        assert [r.span for r in rev.rows] == ["mc.point", "sd.detect"]

    def test_span_missing_from_one_side(self):
        only_a = _tree([("old.span", 0.0, 2.0)])
        only_b = _tree([("new.span", 0.0, 3.0)])
        diff = diff_profiles(only_a, only_b)
        rows = {r.span: r for r in diff.rows}
        assert rows["old.span"].self_b_s == 0.0
        assert rows["old.span"].count_b == 0
        assert rows["old.span"].delta_s == pytest.approx(-2.0)
        assert rows["new.span"].delta_s == pytest.approx(3.0)

    def test_self_diff_has_no_regressions(self):
        diff = diff_profiles(self.A, self.A)
        assert diff.regressions() == []
        assert "0 span(s) regressed" in format_profile_diff(diff)

    def test_regression_thresholds(self):
        diff = diff_profiles(self.A, self.B)
        assert [r.span for r in diff.regressions()] == ["sd.detect"]
        assert diff.regressions(min_delta_s=5.0) == []
        assert diff.regressions(min_pct=50.0) == []
        assert [
            r.span for r in diff.regressions(min_delta_s=1.0, min_pct=10.0)
        ] == ["sd.detect"]

    def test_format_mentions_both_walls(self):
        text = format_profile_diff(diff_profiles(self.A, self.B), top=5)
        assert "10000.000 -> 12000.000 ms" in text  # durations are seconds
        assert "+3000.000" in text and "sd.detect" in text


def _busy_outer(n=40_000):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _busy_inner(n=40_000):
    total = 0
    for i in range(n):
        total += i ^ (i >> 3)
    return total


class TestSpanProfiler:
    def test_function_hotspots_attribute_to_innermost_span(self):
        tracer = Tracer()
        profiler = SpanProfiler()
        with profiler.attach(tracer), use_tracer(tracer):
            with tracer.span("outer"):
                _busy_outer()
                with tracer.span("inner"):
                    _busy_inner()
                _busy_outer()
        tables = profiler.function_tables(top=50)
        outer_fns = {row["function"] for row in tables["outer"]}
        inner_fns = {row["function"] for row in tables["inner"]}
        assert any("_busy_outer" in f for f in outer_fns)
        assert any("_busy_inner" in f for f in inner_fns)
        # the suspend/resume discipline keeps inner work out of outer
        assert not any("_busy_inner" in f for f in outer_fns)
        assert not any("_busy_outer" in f for f in inner_fns)

    def test_attach_restores_hooks_and_unwinds(self):
        tracer = Tracer()
        profiler = SpanProfiler()
        with pytest.raises(RuntimeError):
            with profiler.attach(tracer), use_tracer(tracer):
                with tracer.span("boom"):
                    raise RuntimeError("mid-span")
        assert tracer.on_span_enter is None
        assert tracer.on_span_exit is None
        assert profiler._stack == []  # nothing left enabled

    def test_combined_stats_merges_all_spans(self):
        tracer = Tracer()
        profiler = SpanProfiler()
        with profiler.attach(tracer), use_tracer(tracer):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    _busy_inner()
        stats = profiler.combined_stats()
        merged = {fn for (_f, _l, fn) in stats.stats}
        assert "_busy_inner" in merged


class TestProfiledExperiment:
    def test_smoke_profile_self_times_sum_to_wall(self):
        from repro.obs.profile import profile_experiment

        result = profile_experiment(
            "smoke", channels=1, frames_per_channel=1, functions_top=5
        )
        tree = result.tree
        assert tree.roots, "smoke experiment recorded no spans"
        # the acceptance invariant: exact attribution, not correlation
        assert tree.self_total_s == pytest.approx(tree.wall_s, rel=1e-6)
        assert tree.functions  # SpanProfiler tables came along
        flat = self_by_name(tree)
        assert any(name.startswith("sd.") for name in flat)

    def test_unknown_experiment_raises_keyerror(self):
        from repro.obs.profile import profile_experiment

        with pytest.raises(KeyError, match="unknown experiment"):
            profile_experiment("nope")
