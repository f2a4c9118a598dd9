"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "PTC_MR"])
        assert args.model == "deepmap-wl"
        assert args.folds == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "PTC_MR", "--model", "transformer"]
            )


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "PTC_MR" in out and "COLLAB" in out

    def test_stats(self, capsys):
        assert main(["stats", "PTC_MR", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "graphs:   40" in out

    def test_train_neural(self, capsys):
        code = main(
            [
                "train", "--dataset", "PTC_MR", "--model", "deepmap-wl",
                "--scale", "0.05", "--folds", "2", "--epochs", "2",
            ]
        )
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_train_stream_smoke(self, capsys):
        code = main(
            [
                "train", "--dataset", "MUTAG", "--stream", "--scale", "0.02",
                "--epochs", "1", "--shard-size", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "train accuracy:" in out
        assert "peak RSS:" in out

    def test_train_kernel(self, capsys):
        code = main(
            [
                "train", "--dataset", "PTC_MR", "--model", "wl-svm",
                "--scale", "0.05", "--folds", "2",
            ]
        )
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_train_prints_fold_times(self, capsys):
        main(
            [
                "train", "--dataset", "PTC_MR", "--model", "wl-svm",
                "--scale", "0.05", "--folds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "fold times:" in out
        assert "selected C per fold:" in out

    def test_export_roundtrip(self, tmp_path, capsys):
        code = main(
            ["export", "--dataset", "PTC_MR", "--out", str(tmp_path / "PTC_MR"),
             "--scale", "0.05"]
        )
        assert code == 0
        from repro.datasets.tu_format import load_tu_dataset

        loaded = load_tu_dataset(tmp_path / "PTC_MR")
        assert len(loaded) == 40


class TestObservability:
    """Smoke coverage for --profile / --log-json / report."""

    def test_help_epilog_documents_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "--profile" in out
        assert "--log-json" in out
        assert "repro report" in out

    def test_train_profile_smoke(self, capsys):
        code = main(
            [
                "train", "--dataset", "PTC_MR", "--model", "deepmap-wl",
                "--scale", "0.05", "--folds", "2", "--epochs", "2",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for stage in ("cv", "fold", "fit", "feature_map", "encode",
                      "alignment", "receptive_field", "train"):
            assert stage in out, f"missing stage {stage!r} in profile tree"
        from repro import obs

        assert not obs.enabled()  # CLI turns observability back off

    def test_train_log_json_then_report(self, tmp_path, capsys):
        run_file = tmp_path / "run.jsonl"
        code = main(
            [
                "train", "--dataset", "MUTAG", "--model", "deepmap-wl",
                "--epochs", "2", "--folds", "2", "--scale", "0.05",
                "--profile", "--log-json", str(run_file),
            ]
        )
        assert code == 0
        train_out = capsys.readouterr().out
        assert run_file.exists()

        code = main(["report", str(run_file)])
        assert code == 0
        report_out = capsys.readouterr().out
        assert "stage timings" in report_out
        assert "training telemetry" in report_out
        assert "[fold 0]" in report_out and "[fold 1]" in report_out
        # The offline reconstruction prints the exact same stage tree the
        # live --profile run did.
        tree_lines = [l for l in train_out.splitlines() if l.startswith("cv")]
        assert tree_lines and all(l in report_out for l in tree_lines)

    def test_report_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_train_kernel_with_log_json(self, tmp_path, capsys):
        run_file = tmp_path / "kernel.jsonl"
        code = main(
            [
                "train", "--dataset", "PTC_MR", "--model", "wl-svm",
                "--scale", "0.05", "--folds", "2",
                "--log-json", str(run_file),
            ]
        )
        assert code == 0
        code = main(["report", str(run_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gram" in out


def _ops_span(name, trace_id, duration, offset=None, **attrs):
    record = {
        "kind": "span",
        "name": name,
        "duration_s": duration,
        "attrs": {"trace_id": trace_id, **attrs},
    }
    if offset is not None:
        record["attrs"]["offset_s"] = offset
    return record


def _ops_access(status, duration_ms):
    return {
        "kind": "event",
        "name": "http_access",
        "attrs": {"method": "POST", "path": "/v1/predict",
                  "status": status, "duration_ms": duration_ms},
    }


class TestOps:
    """`repro ops` reconstructs traces and SLO summaries from run JSONL."""

    @pytest.fixture
    def run_file(self, tmp_path):
        import json

        records = [
            _ops_span("queue_wait", "feedbeef00000001", 0.001, offset=0.0005),
            _ops_span("infer", "feedbeef00000001", 0.004, offset=0.002),
            _ops_span("serialize", "feedbeef00000001", 0.0005, offset=0.007),
            _ops_span(
                "request", "feedbeef00000001", 0.009,
                endpoint="predict", model="default", status=200, batch_id="b3",
            ),
        ]
        # Enough traffic to clear the SLO min-sample floor: 1/31 ~ 3.2%
        # errors sits between the loose and tight targets below.
        records += [_ops_access(200, 5.0)] * 30 + [_ops_access(429, 1.0)]
        path = tmp_path / "serve.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_ops_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ops"])

    def test_help_epilog_documents_ops(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "repro ops trace" in out
        assert "repro ops slo" in out

    def test_trace_renders_waterfall(self, run_file, capsys):
        assert main(["ops", "trace", "feedbeef00000001", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "feedbeef00000001" in out
        assert "infer" in out and "serialize" in out
        assert "accounted" in out

    def test_trace_json_output(self, run_file, capsys):
        import json

        code = main(["ops", "trace", "feedbeef00000001", str(run_file), "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["batch_id"] == "b3"
        assert [s["name"] for s in record["spans"]] == [
            "queue_wait", "infer", "serialize",
        ]

    def test_trace_not_found_is_2(self, run_file, capsys):
        assert main(["ops", "trace", "0123456789abcdef", str(run_file)]) == 2
        assert "not found" in capsys.readouterr().out

    def test_trace_without_source_is_2(self, capsys):
        assert main(["ops", "trace", "feedbeef00000001"]) == 2
        assert "RUN.jsonl" in capsys.readouterr().out

    def test_traces_lists_requests(self, run_file, capsys):
        assert main(["ops", "traces", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "trace_id" in out
        assert "feedbeef00000001" in out and "predict" in out

    def test_slo_ok_and_degraded_exit_codes(self, run_file, capsys):
        code = main(["ops", "slo", str(run_file), "--error-rate-target", "0.05"])
        assert code == 0
        assert "SLO status: ok" in capsys.readouterr().out
        # The default 1% error budget is tighter than the recorded 3.2%.
        assert main(["ops", "slo", str(run_file)]) == 1
        assert "DEGRADED" in capsys.readouterr().out
