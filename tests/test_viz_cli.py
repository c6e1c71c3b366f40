"""Tests for artifact export (viz) and the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.geometry.pointcloud import PointCloud
from repro.viz import depth_to_color, write_ply, write_ppm
from tests.twins import assert_pinned


class TestViz:
    def test_write_ppm_roundtrippable_header(self, tmp_path):
        image = np.random.default_rng(0).integers(0, 256, (6, 8, 3)).astype(np.uint8)
        path = write_ppm(tmp_path / "x.ppm", image)
        data = path.read_bytes()
        assert data.startswith(b"P6\n8 6\n255\n")
        assert data[len(b"P6\n8 6\n255\n"):] == image.tobytes()

    def test_write_ppm_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))

    def test_depth_to_color_invalid_is_black(self):
        depth = np.array([[0, 3000]], dtype=np.uint16)
        image = depth_to_color(depth)
        assert image[0, 0].sum() == 0
        assert image[0, 1].sum() > 0

    def test_depth_to_color_varies_with_depth(self):
        depth = np.array([[500, 3000, 5800]], dtype=np.uint16)
        image = depth_to_color(depth)
        assert not np.array_equal(image[0, 0], image[0, 2])

    def test_write_ply(self, tmp_path):
        cloud = PointCloud(
            np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
            np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8),
        )
        path = write_ply(tmp_path / "c.ply", cloud)
        text = path.read_text()
        assert "element vertex 2" in text
        assert text.strip().endswith("3.00000 4.00000 5.00000 0 255 0")


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_videos_command(self, capsys):
        assert main(["videos"]) == 0
        out = capsys.readouterr().out
        for video in ("band2", "dance5", "office1", "pizza1", "toddler4"):
            assert video in out

    def test_schemes_command(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "LiVo" in out and "MeshReduce" in out

    def test_traces_command(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "trace-1" in out and "trace-2" in out

    def test_run_command_small_session(self, capsys):
        code = main([
            "run", "--video", "dance5", "--scheme", "LiVo",
            "--net-trace", "trace-2", "--frames", "6", "--cameras", "4",
        ])
        assert code == 0
        assert "LiVo on dance5" in capsys.readouterr().out

    def test_export_command(self, tmp_path, capsys):
        code = main(["export", "--video", "toddler4", "--out", str(tmp_path / "dump")])
        assert code == 0
        dumped = list((tmp_path / "dump").iterdir())
        assert any(p.suffix == ".ply" for p in dumped)
        assert sum(1 for p in dumped if p.suffix == ".ppm") == 16  # 8 cams x 2

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "nope"])

    @pytest.mark.parametrize("mode", ["shared", "unicast", "sfu"])
    def test_multiway_command_output_pinned(self, mode, capsys, oracle_transform):
        # Recorded before the port onto ConferenceDriver / UnicastBaseline:
        # shared 60627 B uplink / 12 encoder runs; unicast 181400 B / 36;
        # sfu 60627 B / 12 with 62504 B forwarded down three links.
        argv = ["multiway", "--video", "pizza1", "--receivers", "3", "--frames", "6"]
        assert main([*argv, "--mode", mode]) == 0
        assert_pinned(f"cli:multiway_{mode}", capsys.readouterr().out)

    @pytest.mark.parametrize("flag", ["--receivers", "--frames"])
    def test_multiway_rejects_nonpositive_counts(self, flag, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["multiway", flag, "0"])
        assert usage.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--frames", "0"],
            ["run", "--cameras", "0"],
            ["run", "--quality-max-points", "0"],
            ["run", "--user", "5"],
            ["run", "--user", "-1"],
            ["multiway", "--cameras", "0"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--video", "nope"],
            ["export", "--video", "nope"],
            ["multiway", "--video", "nope"],
            ["serve", "--video", "nope"],
            ["serve", "--cameras", "0"],
            # Rigs that tile narrower than the 64-px sequence marker.
            ["multiway", "--cameras", "1"],
            ["serve", "--cameras", "1"],
            ["serve", "--tick-interval", "-1"],
            ["serve", "--port", "99999"],
            ["export", "--frame", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "dump"
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--out", str(out)] if argv[0] == "export" else argv)
        assert usage.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # A rate no link has: nothing, negative, unordered, unbounded.
            ["multiway", "--target-mbps", "0"],
            ["multiway", "--target-mbps", "-1"],
            ["multiway", "--target-mbps", "nan"],
            ["multiway", "--target-mbps", "inf"],
            # No timed wait is longer than threading.TIMEOUT_MAX.
            ["serve", "--tick-interval", "inf"],
            ["serve", "--tick-interval", "nan"],
            ["serve", "--tick-interval", "1e10"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_rates_and_intervals_are_usage_errors(self, argv, capsys):
        # Rejected while parsing: no room is built, no port bound.
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(argv)
        assert usage.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["file", "below a file"])
    def test_export_into_a_file_is_a_usage_error(self, target, tmp_path, capsys):
        existing = tmp_path / "notes.txt"
        existing.write_text("keep me")
        out = existing if target == "file" else existing / "dump"
        with pytest.raises(SystemExit) as usage:
            main(["export", "--out", str(out)])
        assert usage.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --out: {existing} exists and is not a directory" in err
        assert existing.read_text() == "keep me"

    def test_analyze_trace_missing_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["analyze-trace", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err
