import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shishkinfem import cli, errorlab, linsolve
from shishkinfem.assembly import FeField
from shishkinfem.meshgen import Region, build_mesh
from shishkinfem.cli import (RunConfig, ConfigError, parse_config, run, main,
                             DEFAULT_EPS, DEFAULT_N)

SRC = Path(__file__).resolve().parents[1] / "src"


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def header(path):
    return [l for l in read_lines(path) if l.startswith("#")]


def green_sources(path):
    """{(eps, N, region): (source_x, source_y)} of a green.csv."""
    rows = [l.split(",") for l in read_lines(path)
            if not l.startswith("#")][1:]
    return {tuple(r[:3]): tuple(r[3:5]) for r in rows}


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.mode == "errors"
        assert cfg.problem == "example51"
        assert cfg.eps_list == DEFAULT_EPS
        assert cfg.N_list == DEFAULT_N

    def test_full_example(self):
        cfg = parse_config("\n".join([
            "# a comment",
            "mode = green",
            "eps = 1e-4,1e-6",
            "N = 8,16",
            "quad_order = 2",
            "probe_coarse = -0.5,0.1",
            "output = /tmp/somewhere",
        ]))
        assert cfg.mode == "green"
        assert cfg.eps_list == (1e-4, 1e-6)
        assert cfg.N_list == (8, 16)
        assert cfg.quad_order == 2
        assert cfg.probes[Region.COARSE] == (-0.5, 0.1)
        assert cfg.output_dir == "/tmp/somewhere"

    def test_bad_N_names_the_key(self):
        with pytest.raises(ConfigError, match="N"):
            parse_config("N = 15")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("foo = 1")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words")

    def test_malformed_float(self):
        with pytest.raises(ConfigError, match="eps"):
            parse_config("eps = abc")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("mode = bogus")

    def test_mms_allows_eps_one(self):
        cfg = parse_config("mode = mms\nproblem = mms\neps = 1.0\nN = 8")
        assert cfg.eps_list == (1.0,)
        with pytest.raises(ConfigError):
            parse_config("mode = errors\neps = 1.0")


class TestRunModes:
    def test_errors_csv(self, tmp_path):
        cfg = parse_config(f"mode = errors\neps = 1e-4\nN = 8\n"
                           f"output = {tmp_path}")
        assert run(cfg) == 0
        lines = read_lines(tmp_path / "errors.csv")
        header = [l for l in lines if l.startswith("#")]
        assert any("mode = errors" in l for l in header)
        assert any("version" in l for l in header)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "eps,N,region,error"
        assert len(body) == 1 + 4  # one (eps, N) pair, four regions
        for row in body[1:]:
            eps, N, region, err = row.split(",")
            assert float(err) > 0.0

    def test_rates_csv(self, tmp_path):
        cfg = parse_config(f"mode = rates\neps = 1e-4\nN = 8,16\n"
                           f"output = {tmp_path}")
        assert run(cfg) == 0
        body = [l for l in read_lines(tmp_path / "rates.csv")
                if not l.startswith("#")]
        assert body[0] == "eps,N,region,rate"
        # rate defined only at N = 8 (needs errors at 8 and 16)
        assert len(body) == 1 + 4
        assert all(row.split(",")[1] == "8" for row in body[1:])

    def test_green_csv(self, tmp_path):
        cfg = parse_config(f"mode = green\neps = 1e-4\nN = 8\n"
                           f"output = {tmp_path}")
        assert run(cfg) == 0
        body = [l for l in read_lines(tmp_path / "green.csv")
                if not l.startswith("#")]
        assert body[0] == "eps,N,region,source_x,source_y,l2_norm,energy_norm"
        assert len(body) == 1 + 4
        for row in body[1:]:
            parts = row.split(",")
            assert float(parts[6]) >= float(parts[5]) > 0.0

    def test_field_txt(self, tmp_path):
        N = 8
        cfg = parse_config(f"mode = field\neps = 1e-4\nN = {N}\n"
                           f"output = {tmp_path}")
        assert run(cfg) == 0
        body = [l for l in read_lines(tmp_path / "field.txt")
                if not l.startswith("#")]
        nx, ny = 2 * N + 1, N + 1
        assert body[0] == f"{nx} {ny}"
        assert len(body) == 1 + nx * ny
        # boundary rows carry u = 0
        for line in body[1:]:
            x, y, u = map(float, line.split())
            if abs(abs(x) - 1.0) < 1e-14 or abs(abs(y) - 1.0) < 1e-14:
                assert u == 0.0

    def test_field_lines_match_the_per_node_loop(self, tmp_path,
                                                 monkeypatch):
        # the .tolist() writer against the per-node f-string loop it
        # replaced, for one field whose values span many magnitudes
        mesh = build_mesh(8, *cli.transition_params(1e-6, 2.0, 1.0))
        rng = np.random.default_rng(4)
        values = rng.standard_normal((mesh.ny, mesh.nx)) \
            * 10.0 ** rng.integers(-300, 300, (mesh.ny, mesh.nx))
        uh = FeField(mesh, values)
        monkeypatch.setattr(cli, "solve_problem", lambda *a, **k: uh)
        cfg = RunConfig(mode="field", eps_list=(1e-6,), N_list=(8,),
                        output_dir=str(tmp_path))
        assert run(cfg) == 0
        old = [f"{mesh.nx} {mesh.ny}"]
        for y, row in zip(mesh.y, uh.values):
            for x, u in zip(mesh.x, row):
                old.append(f"{float(x)!r} {float(y)!r} {float(u)!r}")
        want = "".join(line + "\n" for line in cli._metadata_lines(cfg) + old)
        assert (tmp_path / "field.txt").read_bytes() == want.encode()

    @pytest.mark.parametrize("lists", [["--eps", "1e-4,1e-5", "--N", "8"],
                                       ["--eps", "1e-4", "--N", "8,16"]],
                             ids=["two-eps", "two-N"])
    def test_field_rejects_lists(self, lists, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--mode", "field", "-o", str(out)] + lists) == 1
        assert capsys.readouterr().err == \
            "config error: eps/N: field mode takes one eps and one N\n"
        assert not out.exists()

    def test_interp_uses_every_eps(self, tmp_path):
        # the rows of each eps, in the order given, equal a run of that
        # eps alone
        def rows(eps, out):
            assert main(["--mode", "interp", "--eps", eps, "--N", "8,16",
                         "--template", "corner_xy", "-o", str(out)]) == 0
            return [l for l in read_lines(out / "interp.csv")
                    if not l.startswith("#")][1:]

        both = rows("1e-6,1e-4", tmp_path / "both")
        assert len(both) == 2 * 2 * 4
        assert both == rows("1e-6", tmp_path / "a") + rows("1e-4",
                                                         tmp_path / "b")

    def test_interp_csv(self, tmp_path):
        cfg = parse_config(f"mode = interp\neps = 1e-6\nN = 8,16\n"
                           f"template = smooth\noutput = {tmp_path}")
        assert run(cfg) == 0
        body = [l for l in read_lines(tmp_path / "interp.csv")
                if not l.startswith("#")]
        assert len(body) == 1 + 2 * 4

    def test_mms_csv(self, tmp_path):
        cfg = parse_config(f"mode = mms\nproblem = mms\neps = 1.0\nN = 8,16\n"
                           f"output = {tmp_path}")
        assert run(cfg) == 0
        body = [l for l in read_lines(tmp_path / "mms.csv")
                if not l.startswith("#")]
        assert body[0] == "N,error,rate"
        assert len(body) == 3
        n8 = body[1].split(",")
        assert float(n8[2]) == pytest.approx(2.0, abs=0.3)
        assert body[2].split(",")[2] == ""  # no rate at the last N

    def test_mms_rate_needs_2N(self, tmp_path):
        assert main(["--mode", "mms", "--problem", "mms", "--eps", "1",
                     "--N", "8,16,64", "-o", str(tmp_path)]) == 0
        body = [l.split(",") for l in read_lines(tmp_path / "mms.csv")
                if not l.startswith("#")][1:]
        assert [row[0] for row in body] == ["8", "16", "64"]
        assert float(body[0][2]) == pytest.approx(2.0, abs=0.15)
        assert body[1][2] == body[2][2] == ""  # 32 and 128 not solved

    def test_mms_header_records_lambda(self, tmp_path):
        # eps = 1 has no Shishkin mesh; the header names the fixed one
        for eps in ("1", "1e-4"):
            out = tmp_path / eps
            assert main(["--mode", "mms", "--problem", "mms", "--eps", eps,
                         "--N", "8", "-o", str(out)]) == 0
            lines = header(out / "mms.csv")
            assert ("# lambda = 0.5,0.25" in lines) == (eps == "1")
            assert "# problem = mms" in lines
            assert not any(l.startswith("# tol") for l in lines)

    @pytest.mark.parametrize("argv, message", [
        ([], "problem: mms mode takes problem mms"),
        (["--problem", "mms"], "eps: mms mode takes one eps"),
        (["--problem", "mms", "--eps", "1e-4,1"],
         "eps: mms mode takes one eps"),
    ], ids=["example51", "default-eps", "two-eps"])
    def test_mms_rejects_what_it_cannot_solve(self, argv, message, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        assert main(["--mode", "mms", "--N", "8", "-o", str(out)] + argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["errors", "rates", "green", "interp"])
    def test_duplicated_inputs_write_one_row_per_key(self, tmp_path, mode):
        assert main(["--mode", mode, "--eps", "1e-4,1e-4", "--N", "8,16,8",
                     "-o", str(tmp_path)]) == 0
        body = [l for l in read_lines(tmp_path / f"{mode}.csv")
                if not l.startswith("#")][1:]
        keys = [tuple(row.split(",")[:3]) for row in body]
        regions = [region.value for region in Region]
        Ns = ["8"] if mode == "rates" else ["8", "16"]
        assert keys == [("0.0001", N, r) for N in Ns for r in regions]

    def test_header_records_template(self, tmp_path):
        headers = []
        for template in ("corner_xy", "smooth"):
            out = tmp_path / template
            assert main(["--mode", "interp", "--eps", "1e-6", "--N", "8",
                         "--template", template, "-o", str(out)]) == 0
            headers.append(header(out / "interp.csv"))
        assert "# template = corner_xy" in headers[0]
        assert headers[0] != headers[1]

    def test_header_records_probe_overrides(self, tmp_path):
        assert main(["--mode", "green", "--eps", "1e-4", "--N", "8",
                     "--probe-coarse", "0.5,0.1", "-o", str(tmp_path)]) == 0
        lines = header(tmp_path / "green.csv")
        assert "# probe_coarse = 0.5,0.1" in lines
        assert not any(l.startswith("# probe_layer") for l in lines)

    def test_partial_probe_override_keeps_other_sources(self, tmp_path):
        # each eps keeps its own default probes for the regions not given
        argv = ["--mode", "green", "--eps", "1e-4,1e-8", "--N", "16"]
        assert main(argv + ["-o", str(tmp_path / "a")]) == 0
        assert main(argv + ["--probe-coarse", "0.5,0.3",
                            "-o", str(tmp_path / "b")]) == 0
        plain = green_sources(tmp_path / "a" / "green.csv")
        moved = green_sources(tmp_path / "b" / "green.csv")
        assert plain.keys() == moved.keys() and len(plain) == 8
        for key in plain:
            if key[2] == "coarse":
                assert moved[key] != plain[key]
            else:
                assert moved[key] == plain[key]

    def test_reruns_byte_identical(self, tmp_path):
        text = f"mode = errors\neps = 1e-4\nN = 8\noutput = {tmp_path}"
        run(parse_config(text))
        first = (tmp_path / "errors.csv").read_bytes()
        run(parse_config(text))
        assert (tmp_path / "errors.csv").read_bytes() == first

    def test_output_dir_is_the_only_one(self, tmp_path, monkeypatch):
        # no environment variable moves the output away from -o
        monkeypatch.setenv("SHISHKINFEM_OUTDIR", str(tmp_path / "env"))
        assert main(["--mode", "field", "--eps", "1e-4", "--N", "8",
                     "-o", str(tmp_path / "out")]) == 0
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert (tmp_path / "out" / "field.txt").exists()

    def test_run_failure_returns_2(self, tmp_path, capsys):
        cfg = RunConfig(mode="interp", eps_list=(1e-6,), N_list=(8,),
                        template="bogus", output_dir=str(tmp_path))
        assert run(cfg) == 2
        assert not (tmp_path / "interp.csv").exists()
        assert "error" in capsys.readouterr().err

    def test_splu_over_memory_limit_exits_2(self, tmp_path, monkeypatch,
                                            capsys):
        # with no multigrid every solve falls to splu, which the limit
        # refuses before it factors
        monkeypatch.setattr(errorlab, "multigrid", lambda *a, **k: None)
        monkeypatch.setattr(linsolve, "SPLU_MEMORY_SHARE", 1e-12)
        out = tmp_path / "out"
        assert main(["--mode", "errors", "--eps", "1e-4", "--N", "8",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: splu of n = ") and err.count("\n") == 1
        assert not out.exists()


class TestAtomicOutput:
    def test_failed_write_leaves_earlier_file(self, tmp_path, monkeypatch):
        cfg = RunConfig(mode="interp", eps_list=(1e-6,), N_list=(8,),
                        output_dir=str(tmp_path))
        assert run(cfg) == 0
        good = (tmp_path / "interp.csv").read_bytes()

        def half_written(cfg):
            def lines():
                yield "eps,N,region,error"
                raise OSError("No space left on device")
            return "interp.csv", lines()

        monkeypatch.setattr(cli, "_run_interp", half_written)
        assert run(cfg) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["interp.csv"]
        assert (tmp_path / "interp.csv").read_bytes() == good

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch,
                                               capsys):
        def broken_lines(cfg):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "_metadata_lines", broken_lines)
        cfg = RunConfig(mode="interp", eps_list=(1e-6,), N_list=(8,),
                        output_dir=str(tmp_path))
        assert run(cfg) == 2
        assert list(tmp_path.iterdir()) == []
        assert "No space left" in capsys.readouterr().err
        # nor the directories it made for a new nested -o
        cfg.output_dir = str(tmp_path / "new" / "nested")
        assert run(cfg) == 2
        assert list(tmp_path.iterdir()) == []


class TestMain:
    def test_flags_round_trip(self, tmp_path):
        code = main(["--mode", "field", "--eps", "1e-4", "--N", "8",
                     "-o", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "field.txt").exists()

    def test_config_file_plus_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("mode = field\neps = 1e-3\nN = 8\n")
        code = main(["--config", str(conf), "--N", "12",
                     "-o", str(tmp_path)])
        assert code == 0
        body = [l for l in read_lines(tmp_path / "field.txt")
                if not l.startswith("#")]
        assert body[0] == "25 13"  # flag N=12 overrides the file

    def test_bad_config_value(self, capsys):
        assert main(["--N", "15"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--mode", "bogus"],
                                      ["--alpha", "x"],
                                      ["--template", "bogus"],
                                      ["--config", "template = bogus"],
                                      ["--alpha", "nan"],
                                      ["--alpha", "inf"],
                                      ["--beta", "nan"],
                                      ["--probe-coarse", "nan,0"],
                                      ["--probe-coarse", "5,5"],
                                      ["--problem", "bogus"],
                                      ["--quad-order", "5"]])
    def test_bad_flag_value_exits_1(self, argv, tmp_path, capsys):
        # a bad value is a configuration error whether it comes from a
        # flag or a config file: exit 1, one line, no usage dump
        if argv[0] == "--config":
            conf = tmp_path / "run.conf"
            conf.write_text(argv[1] + "\n")
            argv = ["--config", str(conf)]
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-o", ""], ["--output="],
                                      ["--config", "output ="]],
                             ids=["flag", "equals", "config"])
    def test_empty_output_dir_exits_1(self, argv, tmp_path, monkeypatch,
                                      capsys):
        # rejected before any work: nothing is computed, nothing is made
        if argv[0] == "--config":
            conf = tmp_path / "run.conf"
            conf.write_text(argv[1] + "\n")
            argv = ["--config", str(conf)]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli, "interp_error_study", None)
        assert main(["--mode", "interp", "--eps", "1e-4", "--N", "8"]
                    + argv) == 1
        assert capsys.readouterr().err == \
            "config error: output: empty directory name\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "1"], "--bogus: unknown flag"),
        (["--probe_coarse", "0,0"], "--probe_coarse: unknown flag"),
        (["--eps", "1e-4", "--N"], "--N: expected a value"),
        (["--tol", "1e-8"], "--tol: unknown flag"),
    ], ids=["unknown-flag", "underscore-flag", "missing-value", "tol-flag"])
    def test_bad_flag_exits_1(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["-o", str(out)] + argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--probe-layer-xy", "-0.01,-0.99"],
                                      ["--probe-layer-xy=-0.01,-0.99"]],
                             ids=["space", "equals"])
    def test_negative_pair_value(self, argv, tmp_path):
        assert main(["--mode", "green", "--eps", "1e-4", "--N", "8",
                     "-o", str(tmp_path)] + argv) == 0
        assert "# probe_layer_xy = -0.01,-0.99" in \
            header(tmp_path / "green.csv")

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: shishkinfem ")
        assert "[--probe-layer-xy VALUE]" in out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.conf")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        # a path below a regular file cannot be created, even by root
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["--mode", "interp", "--eps", "1e-6", "--N", "8",
                     "-o", str(blocker / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 32.0 GiB for an array"),
         "Unable to allocate 32.0 GiB for an array"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, exc, message, tmp_path, monkeypatch,
                                   capsys):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_problem", exhausted)
        code = main(["--mode", "field", "--eps", "1e-4", "--N", "8",
                     "-o", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_mesh_exits_with_one_line(self, tmp_path):
        # at eps = 1e-300 the y-strip nodes collapse onto +-1; the run
        # must say so on one stderr line, not warn about a singular
        # matrix, and write no file
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(SRC), os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "shishkinfem.cli", "--mode", "errors",
             "--eps", "1e-300", "--N", "8", "-o", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert result.returncode in (1, 2)
        assert result.stderr.count("\n") == 1
        assert "lambda_y" in result.stderr and "N = 8" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_made_only_for_a_result(self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        assert main(["--mode", "errors", "--eps", "1e-300", "--N", "8",
                     "-o", str(fresh)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not fresh.exists()
        nested = tmp_path / "a" / "b"
        assert main(["--mode", "errors", "--eps", "1e-4", "--N", "8",
                     "-o", str(nested)]) == 0
        assert (nested / "errors.csv").stat().st_size > 0

    def test_non_finite_coefficient_exits_2(self, tmp_path, monkeypatch,
                                            capsys):
        make = cli.example_5_1

        def nan_source(eps, alpha, beta):
            def f(x, y):
                out = np.zeros(np.broadcast(x, y).shape)
                out.flat[0] = np.nan
                return out
            return dataclasses.replace(make(eps, alpha, beta), f=f)

        monkeypatch.setattr(cli, "example_5_1", nan_source)
        code = main(["--mode", "field", "--eps", "1e-4", "--N", "8",
                     "-o", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: f is not finite at 1 quadrature point\n"
        assert list(tmp_path.iterdir()) == []
