"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            "characterize-adders",
            "explore-gear",
            "characterize-multipliers",
            "encode",
        ):
            args = parser.parse_args([command])
            assert callable(args.func)


class TestCharacterizeAdders:
    def test_table3_output(self, capsys):
        assert main(["characterize-adders"]) == 0
        out = capsys.readouterr().out
        assert "AccuFA" in out and "ApxFA5" in out

    def test_family_sweep(self, capsys):
        assert main(["characterize-adders", "--width", "8",
                     "--lsbs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "RCA8" in out

    def test_csv_mode(self, capsys):
        assert main(["characterize-adders", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("adder,")


class TestExploreGear:
    def test_sweep(self, capsys):
        assert main(["explore-gear", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "max accuracy" in out

    def test_constraint_selection(self, capsys):
        assert main(["explore-gear", "--width", "11",
                     "--min-accuracy", "90"]) == 0
        out = capsys.readouterr().out
        assert "min area with >= 90" in out

    def test_infeasible_constraint_fails(self, capsys):
        assert main(["explore-gear", "--width", "8",
                     "--min-accuracy", "99.9999"]) == 1
        assert "infeasible" in capsys.readouterr().err


class TestMultipliers:
    def test_fig5_only(self, capsys):
        assert main(["characterize-multipliers", "--widths"]) == 0
        out = capsys.readouterr().out
        assert "CfgMulOur" in out

    def test_with_fig6(self, capsys):
        assert main(["characterize-multipliers", "--widths", "4",
                     "--samples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "ApxMul4" in out


class TestEncode:
    def test_encode_small(self, capsys):
        assert main(["encode", "--frames", "2", "--size", "32",
                     "--search-range", "2"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "ApxSAD2" in out

    def test_unknown_variant(self, capsys):
        assert main(["encode", "--variant", "ApxSAD9",
                     "--frames", "2", "--size", "32"]) == 2
        assert "unknown variant" in capsys.readouterr().err


class TestCampaignCommand:
    def test_listed_in_known_commands(self):
        args = build_parser().parse_args(["campaign", "table4"])
        assert callable(args.func)

    def test_table4_campaign(self, capsys):
        assert main(["campaign", "table4", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "accuracy_percent" in out

    def test_sad_campaign_csv(self, capsys):
        assert main(["campaign", "sad", "--pixels", "16",
                     "--samples", "100", "--lsbs", "2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("name,")
        assert "AccuSAD" in out

    def test_cache_dir_and_workers(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["campaign", "table4", "--width", "8", "--model",
                "monte-carlo", "--samples", "2000", "--workers", "2",
                "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 cache hits" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 executed" in warm.err
        assert cold.out == warm.out

class TestResilienceCommand:
    def test_listed_in_known_commands(self):
        args = build_parser().parse_args(["resilience", "sad"])
        assert callable(args.func)

    def test_sad_sweep_with_qos(self, capsys):
        assert main(["resilience", "sad", "--rates", "0", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "qos_stage" in out and "golden" in out

    def test_cell_sweep_csv(self, capsys):
        assert main(["resilience", "cell", "--rates", "0.01", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("rate,")

    def test_workers_and_cache_dir(self, capsys, tmp_path):
        argv = ["resilience", "sad", "--rates", "0", "0.001",
                "--workers", "2", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 cache hits" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 executed" in warm.err
        assert cold.out == warm.out

    def test_quarantine_reported_and_nonzero_exit(self, capsys):
        # An impossible timeout quarantines every task.
        assert main(["resilience", "gear", "--rates", "0.01",
                     "--timeout", "0.000001"]) == 1
        err = capsys.readouterr().err
        assert "QUARANTINED" in err


class TestCampaignFlags:
    def test_explore_gear_accepts_campaign_flags(self, capsys, tmp_path):
        assert main(["explore-gear", "--width", "8", "--model",
                     "monte-carlo", "--samples", "2000", "--seed", "4",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "max accuracy" in out


class TestAnalyticCommand:
    def test_listed_in_known_commands(self):
        args = build_parser().parse_args(["analytic", "--config", "8,2,2"])
        assert callable(args.func)

    def test_config_table(self, capsys):
        assert main(["analytic", "--config", "8,2,2",
                     "--segments", "4:0,2:2,2:2"]) == 0
        out = capsys.readouterr().out
        # GeAr(8,2,2) and its explicit segment spelling are one design.
        assert out.count("4p0-2p2-2p2") == 2
        assert "0.1875" in out  # exact error rate, not an estimate

    def test_csv_mode(self, capsys):
        assert main(["analytic", "--config", "8,2,2", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("segments,n,k,error_rate,")
        assert lines[1].split(",")[3] == "0.1875"

    def test_sweep_reports_front_and_verdict(self, capsys):
        assert main(["analytic", "--sweep", "--width", "6",
                     "--max-segments", "3", "--max-p", "3"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous Pareto front, N=6" in out
        assert "matches or dominates" in out

    def test_sweep_accepts_campaign_flags(self, capsys, tmp_path):
        argv = ["analytic", "--sweep", "--width", "6", "--max-segments",
                "2", "--max-p", "2", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_no_work_exits_2(self, capsys):
        assert main(["analytic"]) == 2
        assert "nothing to analyse" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, capsys):
        assert main(["analytic", "--config", "8,3"]) == 2
        assert "bad configuration spec" in capsys.readouterr().err

    def test_invalid_segments_exit_2(self, capsys):
        assert main(["analytic", "--segments", "4:0,9:9"]) == 2
        assert "bad configuration spec" in capsys.readouterr().err


class TestIsolationFlags:
    def test_tenant_spec_parses_result_byte_quota(self):
        from repro.cli import _parse_tenant_spec

        config = _parse_tenant_spec("gold:4:10:8:32:5000")
        assert config.name == "gold"
        assert config.weight == 4.0
        assert config.max_result_bytes == 5000
        # Omitted or empty quota field means unlimited.
        assert _parse_tenant_spec("free:1").max_result_bytes is None
        assert _parse_tenant_spec("free:1:::256:").max_result_bytes is None

    def test_isolation_flags_are_rejected(self, capsys):
        for argv in (["serve", "--isolation", "process"],
                     ["campaign", "table4", "--isolation", "warm"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "--isolation" in capsys.readouterr().err
