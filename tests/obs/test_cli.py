"""The ``python -m repro.obs`` CLI: trace, summarize, diff.

The diff fixtures under ``fixtures/`` seed a known perf regression
(makespan +50%, bytes doubled, reshipped bytes appearing from zero);
``diff`` must exit 1 on it and 0 on identical runs.
"""
import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.export import load_jsonl
from repro.obs.report import diff_runs, summarize

pytestmark = pytest.mark.obs

FIXTURES = Path(__file__).parent / "fixtures"


class TestDiff:
    def test_diff_detects_seeded_regression(self, capsys):
        rc = main(["diff", str(FIXTURES / "base.jsonl"),
                   str(FIXTURES / "regressed.jsonl")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "time.makespan" in out
        assert "cluster.bytes_sent" in out
        assert "recovery.reshipped_bytes" in out

    def test_diff_same_run_is_clean(self, capsys):
        rc = main(["diff", str(FIXTURES / "base.jsonl"),
                   str(FIXTURES / "base.jsonl")])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_improvement_direction_does_not_flag(self):
        # regressed -> base is an improvement, not a regression.
        diff = diff_runs(load_jsonl(str(FIXTURES / "regressed.jsonl")),
                         load_jsonl(str(FIXTURES / "base.jsonl")))
        assert diff["regressions"] == []
        assert diff["improvements"]

    def test_threshold_is_respected(self):
        base = load_jsonl(str(FIXTURES / "base.jsonl"))
        other = load_jsonl(str(FIXTURES / "regressed.jsonl"))
        # 50% makespan growth passes a 60% threshold...
        loose = diff_runs(base, other, threshold=0.6)
        assert all(r["counter"] != "time.makespan"
                   for r in loose["regressions"])
        # ...but growth-from-zero always flags.
        assert any(r["counter"] == "recovery.reshipped_bytes"
                   for r in loose["regressions"])

    def test_diff_json_mode(self, capsys):
        rc = main(["diff", "--json", str(FIXTURES / "base.jsonl"),
                   str(FIXTURES / "regressed.jsonl")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {r["counter"] for r in payload["regressions"]} >= {
            "time.makespan", "cluster.bytes_sent"}


class TestSummarize:
    def test_summarize_fixture(self, capsys):
        rc = main(["summarize", str(FIXTURES / "base.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans: 2" in out
        assert "time.makespan = 1.0" in out

    def test_summarize_json_mode(self, capsys):
        rc = main(["summarize", "--json", str(FIXTURES / "base.jsonl")])
        assert rc == 0
        s = json.loads(capsys.readouterr().out)
        assert s["span_kinds"] == {"kernel": 1, "section": 1}
        assert s["ranks"] == [0]
        assert s["sections"][0]["label"] == "par"

    def test_summarize_matches_library(self):
        data = load_jsonl(str(FIXTURES / "base.jsonl"))
        s = summarize(data)
        assert s["events"] == 2
        assert s["counters"]["cluster.bytes_sent"] == 4096


class TestTraceCommand:
    def test_trace_exports_validating_chrome_and_jsonl(self, tmp_path,
                                                      capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "run.jsonl"
        rc = main(["trace", "--app", "sgemm", "--nodes", "2",
                   "--chrome", str(chrome), "--jsonl", str(jsonl),
                   "--tree"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase:matmul" in out  # --tree output
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        data = load_jsonl(str(jsonl))
        assert data["spans"] and data["events"]
        assert data["counters"]["sections.count"] >= 2
        # Each section says which loop its ranks ran: an engine plan here.
        loops = [s["attrs"].get("loop") for s in data["spans"]
                 if s["kind"] == "section"]
        assert loops == ["engine", "engine"]

    def test_summarize_prints_each_sections_kernels(self, tmp_path, capsys):
        """Per section: how many passes its ranks ran (one per core), how
        many tasks they were timed as, how much of it was stealable."""
        jsonl = tmp_path / "run.jsonl"
        assert main(["trace", "--app", "tpacf", "--nodes", "2",
                     "--chrome", "", "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        dd, dr, rr = summarize(load_jsonl(str(jsonl)))["kernels"]
        # 2 ranks x 16 cores, one pass a core; a task per row of dd's 64
        # and per set of dr's and rr's 32
        assert (dd["ranks"], dd["passes"], dd["tasks"]) == (2, 32, 64)
        assert (dr["ranks"], dr["passes"], dr["tasks"]) == (2, 32, 32)
        assert dd["nested_s"] == 0 and dr["nested_s"] > rr["nested_s"] > 0
        assert main(["summarize", str(jsonl)]) == 0
        assert "kernels of section" in capsys.readouterr().out

    @pytest.mark.parametrize("vectorize,loop", [(True, "engine"),
                                                (False, "bound")])
    def test_section_spans_name_their_loop(self, vectorize, loop):
        from repro.obs.runapp import capture_app

        rec, run = capture_app("mriq", 2, vectorize=vectorize)
        sections = [s for s in rec.spans if s.kind == "section"]
        assert sections and all(s.attrs["loop"] == loop for s in sections)

