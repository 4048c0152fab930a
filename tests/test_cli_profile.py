"""The ``profile`` subcommand and ``stats --json``.

Exit-code contract: happy paths exit 0, ``profile diff --check`` exits
1 on a threshold-crossing regression, unknown runs/experiments and
missing files exit 2 with a single ``error: ...`` line.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import Tracer, use_tracer, write_jsonl
from repro.obs.profile import SPEEDSCOPE_SCHEMA, build_profile_tree
from repro.obs.registry import MANIFEST_FILE, PROFILE_FILE
from repro.obs.tracer import PHASE_SPAN, TraceEvent


def _profile_run(tmp_path, run_id, spans, *, experiment="smoke"):
    """A handcrafted finalized run directory holding a profile.json."""
    run_dir = tmp_path / "runs" / run_id
    run_dir.mkdir(parents=True)
    tree = build_profile_tree(
        [
            TraceEvent(phase=PHASE_SPAN, name=n, ts=ts, dur=d)
            for n, ts, d in spans
        ]
    )
    (run_dir / PROFILE_FILE).write_text(json.dumps(tree.to_dict()))
    (run_dir / MANIFEST_FILE).write_text(
        json.dumps(
            {"run_id": run_id, "experiment": experiment, "status": "complete",
             "artifacts": [PROFILE_FILE]}
        )
    )
    return tmp_path / "runs", run_id


BASE_SPANS = [("mc.point", 0.0, 0.010), ("sd.detect", 0.0, 0.004)]
SLOW_SPANS = [("mc.point", 0.0, 0.012), ("sd.detect", 0.0, 0.007)]


class TestProfileDiffCli:
    def test_diff_ranks_regressed_span_first(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        _, b = _profile_run(tmp_path, "20260808T000001-smoke-bb", SLOW_SPANS)
        assert main(["profile", "--dir", str(runs), "diff", a, b]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("sd.", "mc."))]
        assert lines[0].startswith("sd.detect")  # biggest Δself first
        assert "+3.000" in lines[0]  # 4 ms -> 7 ms
        assert "1 span(s) regressed, 1 improved" in out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        _, b = _profile_run(tmp_path, "20260808T000001-smoke-bb", SLOW_SPANS)
        code = main(["profile", "--dir", str(runs), "diff", a, b, "--check"])
        assert code == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_check_thresholds_absorb_noise(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        _, b = _profile_run(tmp_path, "20260808T000001-smoke-bb", SLOW_SPANS)
        code = main(
            ["profile", "--dir", str(runs), "diff", a, b, "--check",
             "--min-delta-ms", "5"]
        )
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_self_diff_reports_zero_regressions(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        code = main(
            ["profile", "--dir", str(runs), "diff", "latest", "latest",
             "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 span(s) regressed" in out
        assert "check OK" in out

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        assert main(["profile", "--dir", str(runs), "diff", a, "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestProfileFlameCli:
    def test_flame_writes_both_formats(self, tmp_path, capsys):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        base = tmp_path / "flame" / "out"
        code = main(
            ["profile", "--dir", str(runs), "flame", a, "--out", str(base)]
        )
        assert code == 0
        collapsed = base.with_suffix(".collapsed.txt").read_text()
        assert "mc.point;sd.detect 4000" in collapsed
        doc = json.loads(base.with_suffix(".speedscope.json").read_text())
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        profile = doc["profiles"][0]
        assert profile["endValue"] == pytest.approx(10_000)  # µs
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_flame_single_format(self, tmp_path):
        runs, a = _profile_run(tmp_path, "20260808T000000-smoke-aa", BASE_SPANS)
        base = tmp_path / "flame" / "only"
        code = main(
            ["profile", "--dir", str(runs), "flame", a, "--out", str(base),
             "--format", "collapsed"]
        )
        assert code == 0
        assert base.with_suffix(".collapsed.txt").is_file()
        assert not base.with_suffix(".speedscope.json").exists()


class TestProfileRunCli:
    def test_run_records_and_writes_artifacts(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        base = tmp_path / "artifacts" / "smoke"
        code = main(
            ["profile", "--dir", str(runs), "run", "smoke",
             "--channels", "1", "--frames", "1", "--out", str(base),
             "--record"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span-covered wall" in out
        assert "top functions by internal time" in out
        # artifact trio next to --out
        profile_doc = json.loads(
            base.with_suffix(".profile.json").read_text()
        )
        assert profile_doc["tree"], "profile artifact recorded no spans"
        assert base.with_suffix(".collapsed.txt").is_file()
        assert base.with_suffix(".speedscope.json").is_file()
        # recorded registry run carries the profile + manifest entry
        run_dirs = [p for p in runs.iterdir() if (p / MANIFEST_FILE).is_file()]
        assert len(run_dirs) == 1
        manifest = json.loads((run_dirs[0] / MANIFEST_FILE).read_text())
        assert PROFILE_FILE in manifest["artifacts"]
        recorded = json.loads((run_dirs[0] / PROFILE_FILE).read_text())
        assert recorded["tree"] == profile_doc["tree"]
        # acceptance: recorded self-times sum to the recorded wall

        def _self_sum(rows):
            return sum(
                r["self_s"] + _self_sum(r.get("children", [])) for r in rows
            )

        assert _self_sum(recorded["tree"]) == pytest.approx(
            recorded["wall_s"], rel=1e-6
        )

    def test_run_by_snr_splits_subtrees(self, capsys):
        code = main(
            ["profile", "run", "smoke", "--channels", "1", "--frames", "1",
             "--by", "snr_db", "--top", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mc.point[snr_db=8]" in out
        assert "mc.point[snr_db=12]" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["profile", "run", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown experiment" in err


def _event_log(tmp_path):
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("mc.block", snr_db=8.0):
            with tracer.span("sd.detect"):
                pass
    return write_jsonl(tracer, tmp_path / "events.jsonl")


class TestStatsJson:
    def test_stdout_json_is_machine_readable(self, tmp_path, capsys):
        log = _event_log(tmp_path)
        code = main(["stats", "--from-jsonl", str(log), "--json", "-"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)  # nothing but the JSON
        assert doc["schema"] == 2
        assert doc["source"] == str(log)
        assert {"mc.block", "sd.detect"} <= set(doc["spans"])
        assert doc["spans"]["mc.block"]["count"] == 1
        # An event log holds spans and instants only: no counts.
        assert "instruments" not in doc
        assert doc["rates"] == {}

    def test_json_to_file_keeps_human_tables(self, tmp_path, capsys):
        log = _event_log(tmp_path)
        out = tmp_path / "stats.json"
        code = main(["stats", "--from-jsonl", str(log), "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "metrics:" in printed  # human tables still render
        assert json.loads(out.read_text())["schema"] == 2

    def test_missing_jsonl_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = main(["stats", "--from-jsonl", str(missing), "--json", "-"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_experiment_stats_json(self, capsys):
        code = main(
            ["stats", "smoke", "--channels", "1", "--frames", "1",
             "--json", "-"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "smoke"
        assert any(name.startswith("sd.") for name in doc["spans"])
        # Counters come from the registry the replay ran under.
        counters = doc["instruments"]["counters"]
        for name in ("mc.frames", "detector.frames", "traversal.nodes_expanded"):
            assert sum(
                v for k, v in counters.items() if k.startswith(name + "{")
            ) > 0, name
        assert doc["rates"] and all(v > 0 for v in doc["rates"].values())
