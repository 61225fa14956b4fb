import dataclasses
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hardsum

from hardsum.cli import RunConfig, cmd_run, main
from hardsum.instances import ell_p
from hardsum.verify import BatteryCheck

ROW_KEYS = {"iter", "epoch", "step", "f", "grad_norm", "mu", "h_norm",
            "q_val", "q_grad", "q_hess"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _synthetic_svrc_ini(eps="1e6"):
    return (
        "[instance]\n"
        "mode = synthetic\n"
        "n = 4\n"
        "d = 5\n"
        f"eps = {eps}\n"
        "[optimizer]\n"
        "optimizer = svrc\n"
        "b_g = 3\nb_h = 3\nS = 2\nT = 2\n"
        "L2 = 1.0\n"
        "seed = 3\n"
    )


_THIRD_MOMENT_P1_INI = (
    "[instance]\nmode = randomized-third-moment\np = 1\nn = 2\n"
    "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
    "[optimizer]\noptimizer = gd\nbudget = 20\n")

_DETERMINISTIC_P0_INI = (
    "[instance]\nmode = deterministic\np = 0\nn = 4\n"
    "delta = 960.0\nL = 1.0\neps = 1.0\n")

_ADV_CUBIC_INI = (
    "[instance]\nmode = deterministic\np = 1\nn = 4\n"
    f"delta = 960.0\nL = {ell_p(1)!r}\neps = 1.0\n"
    "[optimizer]\noptimizer = cubic\n")

_SYNTHETIC_N0_INI = _synthetic_svrc_ini().replace("n = 4\n", "n = 0\n")

_P3_NO_ELL_HAT_INI = (
    "[instance]\nmode = randomized-individual\np = 3\nn = 2\n"
    "delta = 800.0\nL = 1.0\neps = 1.0\n"
    "[optimizer]\noptimizer = gd\nbudget = 20\n")


def _jsonl(path):
    lines = [json.loads(s) for s in
             open(path, encoding="utf-8").read().splitlines() if s]
    assert "summary" in lines[-1]
    return lines[:-1], lines[-1]["summary"]


#: every key of RunConfig with a value other than its default, one of each
#: key type: str, int, float, bool, and optional int, float and str
_EVERY_KEY_INI = (
    "[instance]\nmode = randomized-individual\np = 2\nn = 8\n"
    "delta = 10000.0\nL = 2.5\neps = 0.3\nd = 128\nell_hat = 7.0\n"
    "haar_c = true\ncurvature = 0.5\nripple = 2.0\n"
    "[optimizer]\noptimizer = cubic\nstep = 0.1\nM = 12.0\nb_g = 9\n"
    "b_h = 10\nS = 3\nT = 4\nfull_batch = true\nL2 = 0.7\n"
    "delta_hat = 3.0\nseed = 11\nout = x.jsonl\nbudget = 500\n"
    "[verify]\nnum_points = 6\nzero_chain_samples = 50\npairs = 12\n"
    "trials = 1500\nstarts = 3\n")


class TestRunConfig:
    def test_empty_ini_gives_defaults(self):
        assert RunConfig.from_ini("") == RunConfig()
        assert RunConfig.from_ini(
            "[instance]\n[optimizer]\n[verify]\n") == RunConfig()

    def test_every_key_type_parses(self):
        cfg = RunConfig.from_ini(_EVERY_KEY_INI)
        assert cfg == RunConfig(
            mode="randomized-individual", p=2, n=8, delta=1e4, L=2.5,
            eps=0.3, d=128, ell_hat=7.0, haar_c=True, curvature=0.5,
            ripple=2.0, optimizer="cubic", step=0.1, M=12.0, b_g=9, b_h=10,
            S=3, T=4, full_batch=True, L2=0.7, delta_hat=3.0, seed=11,
            out="x.jsonl", budget=500, num_points=6, zero_chain_samples=50,
            pairs=12, trials=1500, starts=3)
        assert all(getattr(cfg, f.name) != f.default
                   for f in dataclasses.fields(RunConfig))
        for key, kind in (("p", int), ("delta", float), ("haar_c", bool),
                          ("d", int), ("ell_hat", float), ("out", str)):
            assert type(getattr(cfg, key)) is kind

    def test_none_fields_omitted(self):
        cfg = RunConfig.from_ini("[instance]\nmode = synthetic\n")
        assert cfg.ell_hat is None and cfg.budget is None and cfg.d is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'colour'"):
            RunConfig.from_ini("[instance]\ncolour = red\n")

    def test_key_misplaced_in_wrong_section(self):
        with pytest.raises(ValueError, match=r"\[optimizer\]"):
            RunConfig.from_ini("[optimizer]\neps = 1.0\n")

    def test_keys_are_case_sensitive(self):
        cfg = RunConfig.from_ini("[instance]\nL = 2.5\n")
        assert cfg.L == 2.5
        with pytest.raises(ValueError, match="unknown key 'l'"):
            RunConfig.from_ini("[instance]\nl = 2.5\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(mode="other")
        with pytest.raises(ValueError, match="optimizer"):
            RunConfig(optimizer="adam")

    def test_third_moment_needs_p_2(self):
        with pytest.raises(ValueError, match="p = 2"):
            RunConfig(mode="randomized-third-moment", p=1)
        RunConfig(mode="randomized-third-moment", p=2)

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be at least 1"):
            RunConfig(p=0)
        with pytest.raises(ValueError, match="n must be at least 1"):
            RunConfig(mode="synthetic", n=0)
        RunConfig(p=1, n=1)

    def test_randomized_p_3_needs_ell_hat(self):
        with pytest.raises(ValueError, match="set ell_hat for p = 3"):
            RunConfig(mode="randomized-individual", p=3)
        RunConfig(mode="randomized-individual", p=3, ell_hat=1.0)
        RunConfig(mode="deterministic", p=3)

    def test_load(self, tmp_path):
        path = _write(tmp_path, "c.ini", _EVERY_KEY_INI)
        assert RunConfig.load(path) == RunConfig.from_ini(_EVERY_KEY_INI)

    def test_float_precision_survives(self):
        cfg = RunConfig.from_ini(f"[instance]\nL = {ell_p(1)!r}\n")
        assert cfg.L == ell_p(1)


class TestGen:
    def test_synthetic_descriptor(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini",
                          "[instance]\nmode = synthetic\nn = 3\nd = 6\n")
        rc = main(["gen", "--config", cfg_path, "--out", str(tmp_path / "o"),
                   "--quiet"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "instance.json").read_text())
        assert payload["mode"] == "synthetic"
        assert payload["n"] == 3

    def test_deterministic_spec_json(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 1\nn = 4\n"
            f"delta = 960.0\nL = {ell_p(1)!r}\neps = 1.0\n"))
        rc = main(["gen", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "K+1 = 5" in out
        payload = json.loads((tmp_path / "o" / "instance.json").read_text())
        assert payload["K"] == 4
        assert payload["mode"] == "deterministic"

    def test_randomized_writes_basis(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
            "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"))
        with pytest.warns(UserWarning):
            rc = main(["gen", "--config", cfg_path,
                       "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "o" / "b_matrix.bin").read_bytes()[:4] == b"HSB1"

    def test_gen_deterministic_bytes(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
            "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
            "[optimizer]\nseed = 9\n"))
        blobs = []
        for sub in ("a", "b"):
            with pytest.warns(UserWarning):
                assert main(["gen", "--config", cfg_path,
                             "--out", str(tmp_path / sub), "--quiet"]) == 0
            blobs.append(((tmp_path / sub / "instance.json").read_bytes(),
                          (tmp_path / sub / "b_matrix.bin").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_too_small_gap_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 2\nn = 2\n"
            "delta = 100.0\nL = 1.0\neps = 0.05\n"))
        rc = main(["gen", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "smallest workable Delta" in err
        assert "hint" in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", "[instance]\nbogus = 1\n")
        assert main(["gen", "--config", cfg_path]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_third_moment_with_p_1_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _THIRD_MOMENT_P1_INI)
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "p = 2" in err
        assert not out.exists()

    def test_deterministic_p_0_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _DETERMINISTIC_P0_INI)
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "p = 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_randomized_p_3_without_ell_hat_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _P3_NO_ELL_HAT_INI)
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "ell_hat" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRun:
    def test_synthetic_svrc_jsonl(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        out = tmp_path / "run.jsonl"
        rc = main(["run", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 0
        rows, summary = _jsonl(out)
        assert len(rows) == 4                      # S*T steps
        assert all(set(r) == ROW_KEYS for r in rows)
        assert [r["iter"] for r in rows] == [0, 1, 2, 3]
        # raw total = S n + S T (2 b_g + b_h); adjusted credits the re-reads
        assert summary["totals"]["total"] == 2 * 4 + 4 * 9
        assert summary["totals"]["adjusted_total"] == 2 * 4 + 4 * 6
        assert summary["totals"]["cache_hits"] == 4 * 3
        assert summary["first_hit"] == 0           # eps is huge
        assert summary["seed"] == 3

    def test_stdout_quiet_is_pure_jsonl(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        rc = main(["run", "--config", cfg_path, "--quiet"])
        assert rc == 0
        lines = [json.loads(s) for s in
                 capsys.readouterr().out.splitlines() if s]
        assert "summary" in lines[-1]

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            assert main(["run", "--config", cfg_path, "--out", str(out),
                         "--quiet"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--quiet", "--seed", "7"]) == 0
        _, summary = _jsonl(out)
        assert summary["seed"] == 7

    def test_gd_baseline_rows(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = synthetic\nn = 3\nd = 4\neps = 1e-9\n"
            "[optimizer]\noptimizer = gd\nstep = 0.05\nbudget = 12\n"
            "L2 = 1.0\n"))
        out = tmp_path / "gd.jsonl"
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--quiet"]) == 0
        rows, summary = _jsonl(out)
        assert len(rows) == 4                      # 4 passes of n=3 in 12
        assert summary["totals"]["grad"] == 12
        assert summary["totals"]["hess"] == 0
        assert all(r["mu"] is not None for r in rows)

    def test_adversary_run_certificate(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 1\nn = 4\n"
            f"delta = 960.0\nL = {ell_p(1)!r}\neps = 1.0\n"
            "[optimizer]\noptimizer = cubic\nseed = 0\n"))
        out = tmp_path / "adv.jsonl"
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--quiet"]) == 0
        rows, summary = _jsonl(out)
        cert = summary["certificate"]
        assert cert["passed"] is True
        assert cert["max_inner_product"] <= 1e-10
        assert cert["min_grad_norm"] > cert["bound"]
        # the hardness statement: no archived iterate is eps-stationary for
        # the finalized objective (the bound equals eps in this scaling)
        assert summary["final_first_hit"] is None

    def test_multi_seed_files(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        out = tmp_path / "multi.jsonl"
        rc = main(["run", "--config", cfg_path, "--out", str(out), "--quiet",
                   "--seeds", "5,6"])
        assert rc == 0
        for s in (5, 6):
            rows, summary = _jsonl(tmp_path / f"multi.seed{s}.jsonl")
            assert summary["seed"] == s
            assert len(rows) == 4

    def test_multi_seed_files_match_single_seed_runs(self, tmp_path):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        assert main(["run", "--config", cfg_path, "--quiet", "--seeds", "5,6",
                     "--out", str(tmp_path / "multi.jsonl")]) == 0
        for s in (5, 6):
            single = tmp_path / f"single{s}.jsonl"
            assert main(["run", "--config", cfg_path, "--quiet", "--seed",
                         str(s), "--out", str(single)]) == 0
            assert (tmp_path / f"multi.seed{s}.jsonl").read_bytes() \
                == single.read_bytes()

    def test_multi_seed_echo_is_the_single_seed_echoes_in_order(
            self, tmp_path, capsys):
        # no L2: each run estimates it, long enough that seeds run at the
        # same time would interleave their echo lines
        cfg_path = _write(tmp_path, "c.ini",
                          _synthetic_svrc_ini().replace("L2 = 1.0\n", ""))
        assert main(["run", "--config", cfg_path, "--seeds", "1,2,3",
                     "--out", str(tmp_path / "multi.jsonl")]) == 0
        multi = capsys.readouterr().out
        singles = []
        for s in (1, 2, 3):
            single = tmp_path / f"single{s}.jsonl"
            assert main(["run", "--config", cfg_path, "--seed", str(s),
                         "--out", str(single)]) == 0
            singles.append(capsys.readouterr().out)
            assert (tmp_path / f"multi.seed{s}.jsonl").read_bytes() \
                == single.read_bytes()
        assert multi == "".join(singles)
        assert [line.split(":")[0] for line in multi.splitlines()] \
            == ["seed 1", "seed 1", "seed 2", "seed 2", "seed 3", "seed 3"]

    def test_multi_seed_requires_out(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        assert main(["run", "--config", cfg_path, "--quiet",
                     "--seeds", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: multi-seed runs require --out\n"
        assert captured.out == ""
        # the library call raises, as its other refusals do, and runs
        # nothing
        with pytest.raises(ValueError,
                           match="^multi-seed runs require --out$"):
            cmd_run(RunConfig.load(cfg_path), quiet=True, seeds=[1, 2])
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    def test_run_too_small_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 1\nn = 2\n"
            "delta = 10.0\nL = 1.0\neps = 1.0\n"))
        assert main(["run", "--config", cfg_path, "--quiet"]) == 2
        assert "hint" in capsys.readouterr().err

    def test_deterministic_game_of_one_component_exits_2(self, tmp_path,
                                                         capsys):
        # it used to run its 16 moves and exit 0 with a failed certificate
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 1\nn = 1\n"
            f"delta = 3264\nL = {ell_p(1)!r}\neps = 1.0\n"
            "[optimizer]\noptimizer = gd\nstep = 0.25\n"))
        out = tmp_path / "m.jsonl"
        assert main(["run", "--config", cfg_path, "--quiet",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a deterministic game needs n >= 2")
        assert not out.exists()

    def test_run_and_gen_give_the_same_hint(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", (
            "[instance]\nmode = deterministic\np = 1\nn = 2\n"
            "delta = 10.0\nL = 1.0\neps = 1.0\n"))
        assert main(["run", "--config", cfg_path, "--quiet"]) == 2
        run_err = capsys.readouterr().err
        assert main(["gen", "--config", cfg_path, "--quiet",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == run_err
        assert "(or relax eps)" in run_err

    def test_third_moment_with_p_1_exits_2(self, tmp_path, capsys):
        # rejected with the config, before any seed runs
        cfg_path = _write(tmp_path, "c.ini", _THIRD_MOMENT_P1_INI)
        out = tmp_path / "m.jsonl"
        assert main(["run", "--config", cfg_path, "--quiet", "--out",
                     str(out), "--seeds", "1,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "p = 2" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    def test_randomized_p_3_without_ell_hat_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _P3_NO_ELL_HAT_INI)
        assert main(["run", "--config", cfg_path, "--quiet", "--out",
                     str(tmp_path / "m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "ell_hat" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    def test_synthetic_n_0_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", _SYNTHETIC_N0_INI)
        assert main(["run", "--config", cfg_path, "--quiet", "--out",
                     str(tmp_path / "m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and "n = 0" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    @pytest.mark.parametrize("ini, args, match", [
        (_ADV_CUBIC_INI, ["--budget", "0"], "budget must be at least 1"),
        (_ADV_CUBIC_INI.replace("cubic", "gd"), ["--budget", "0"],
         "budget must be at least 1"),
        (_ADV_CUBIC_INI.replace("eps = 1.0", "eps = -1"), [],
         "eps must be positive"),
        (_ADV_CUBIC_INI.replace("eps = 1.0", "eps = nan"), [],
         "eps must be positive"),
        (_ADV_CUBIC_INI.replace("delta = 960.0", "delta = 0"), [],
         "delta must be positive"),
        (_ADV_CUBIC_INI.replace(f"L = {ell_p(1)!r}", "L = 0"), [],
         "L must be positive"),
        (_synthetic_svrc_ini().replace("d = 5", "d = 0"), [],
         "d must be at least 1"),
    ], ids=["budget-0-cubic", "budget-0-gd", "eps-negative", "eps-nan",
            "delta-0", "L-0", "synthetic-d-0"])
    def test_unusable_numbers_exit_2(self, tmp_path, capsys, ini, args,
                                     match):
        cfg_path = _write(tmp_path, "c.ini", ini)
        assert main(["run", "--config", cfg_path, "--quiet", "--out",
                     str(tmp_path / "m.jsonl")] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config:") and match in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    @pytest.mark.parametrize("seeds", ["1,x", ",", "", "3,3", "1,2,1"])
    def test_bad_seed_list_exits_2(self, seeds, tmp_path, capsys):
        # a list with a non-integer, with no seed, or naming a seed twice
        cfg_path = _write(tmp_path, "c.ini", _synthetic_svrc_ini())
        assert main(["run", "--config", cfg_path, "--quiet", "--out",
                     str(tmp_path / "m.jsonl"), "--seeds", seeds]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and "--seeds" in out.err
        assert out.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]

    @pytest.mark.parametrize("seeds", [[], [3, 3]], ids=["empty", "repeat"])
    def test_cmd_run_refuses_a_bad_seed_list(self, seeds, tmp_path):
        # a library call is held to the --seeds rule, and writes nothing
        cfg = dataclasses.replace(
            RunConfig.load(_write(tmp_path, "c.ini", _synthetic_svrc_ini())),
            out=str(tmp_path / "m.jsonl"))
        with pytest.raises(ValueError, match="--seeds"):
            cmd_run(cfg, quiet=True, seeds=seeds)
        assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]


_SVRC_INI = _synthetic_svrc_ini()
_RANDOMIZED_INI = _THIRD_MOMENT_P1_INI.replace("third-moment", "individual")

#: configs whose values pass RunConfig but that the library refuses, and
#: the refusal; a gen- case runs gen, the others run
_REFUSED = {
    "svrc-M-negative": (_SVRC_INI + "M = -1.0\n", "M must be positive"),
    "svrc-b_g-0": (_SVRC_INI.replace("b_g = 3", "b_g = 0"), "batch sizes"),
    "svrc-T-0": (_SVRC_INI.replace("T = 2", "T = 0"), "S and T must be"),
    "svrc-delta_hat-negative": (_SVRC_INI + "delta_hat = -1.0\n",
                                "Delta must be positive"),
    "synthetic-L2-negative": (_SVRC_INI.replace("L2 = 1.0", "L2 = -1.0"),
                              "L2 must be positive"),
    **{f"{command}-ell_hat-negative": (
        _RANDOMIZED_INI.replace("ell_hat = 1.0", "ell_hat = -1.0"),
        "ell_hat must be positive") for command in ("run", "gen")},
    **{f"{command}-d-5-n-2": (_RANDOMIZED_INI.replace("n = 2", "n = 2\nd = 5"),
                              "d = 5 must be divisible by n = 2")
       for command in ("run", "gen")},
    "gd-step-nan": (_RANDOMIZED_INI + "step = nan\n", "non-finite"),
    # eps so small that a count overflows a float
    **{f"svrc-eps-{eps}": (_synthetic_svrc_ini(eps),
                           "epoch count S = inf is beyond the float range")
       for eps in ("1e-205", "1e-300")},
    **{f"{command}-{mode}-eps-1e-200": (
        ini.replace("eps = 1.0", "eps = 1e-200"),
        f"chain length {count} = inf is beyond the float range")
       for command in ("run", "gen")
       for mode, ini, count in (("deterministic", _ADV_CUBIC_INI, "K + 1"),
                                ("randomized", _RANDOMIZED_INI, "K"))},
    "gen-third-moment-eps-1e-300": (
        _THIRD_MOMENT_P1_INI.replace("p = 1", "p = 2")
        .replace("eps = 1.0", "eps = 1e-300"),
        "chain length K = inf is beyond the float range"),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", list(_REFUSED))
def test_library_refusal_exits_2(tmp_path, capsys, name):
    # one error line, no traceback, no file written
    ini, match = _REFUSED[name]
    command = "gen" if name.startswith("gen-") else "run"
    cfg_path = _write(tmp_path, "c.ini", ini)
    out = tmp_path / ("o" if command == "gen" else "m.jsonl")
    assert main([command, "--config", cfg_path, "--quiet", "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "c.ini"]


class TestVerify:
    def test_small_battery_exit_0(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.ini", (
            "[verify]\nnum_points = 4\nzero_chain_samples = 40\n"
            "pairs = 12\ntrials = 1000\nstarts = 2\n"))
        out = tmp_path / "verify.json"
        with pytest.warns(UserWarning):
            rc = main(["verify", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "check_derivatives" in table
        assert "passed" in table
        payload = json.loads(out.read_text())
        assert all(c["status"] in ("passed", "skipped") for c in payload)

    def test_failure_exits_1(self, monkeypatch, capsys):
        # the package re-exports the main() function under the module's own
        # name, so resolve the module through importlib
        import importlib
        cli_main = importlib.import_module("hardsum.cli.main")
        monkeypatch.setattr(
            cli_main, "run_battery",
            lambda **kw: [BatteryCheck("stub_check", "failed", {"why": "x"})])
        rc = main(["verify", "--quiet"])
        assert rc == 1
        assert "FAILED: stub_check" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["num_points", "zero_chain_samples",
                                     "pairs", "trials", "starts"])
    def test_negative_count_exits_2(self, tmp_path, monkeypatch, capsys,
                                    key):
        # refused where the config is read: one error line, no check run
        import importlib
        cli_main = importlib.import_module("hardsum.cli.main")
        monkeypatch.setattr(cli_main, "run_battery", lambda **kw: 1 / 0)
        cfg_path = _write(tmp_path, "c.ini", f"[verify]\n{key} = -1\n")
        assert main(["verify", "--config", cfg_path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: bad config: {key} must be at least 0, "
                       f"got {key} = -1\n")

    def test_budget_flag_is_refused(self, monkeypatch, capsys):
        # the battery charges no query: the flag is not one of verify's, so
        # argparse exits 2 before any check runs
        import importlib
        cli_main = importlib.import_module("hardsum.cli.main")
        monkeypatch.setattr(cli_main, "run_battery", lambda **kw: 1 / 0)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quiet", "--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err



def test_main_calls_in_one_process_answer_as_separate_processes(
        tmp_path, capsys, monkeypatch):
    # the parser is built once per process; calls with other subcommands
    # and other flags after it (a run without --seeds after one with them,
    # a refused seed list) answer byte for byte as fresh processes do
    svrc = _write(tmp_path, "svrc.ini", _synthetic_svrc_ini())
    small = _write(tmp_path, "verify.ini", (
        "[verify]\nnum_points = 4\nzero_chain_samples = 40\n"
        "pairs = 12\ntrials = 1000\nstarts = 2\n"))
    calls = (["run", "--config", svrc, "--seeds", "1,2", "--out", "a.jsonl"],
             ["verify", "--config", small, "--seed", "3", "--quiet",
              "--out", "rep.json"],
             ["run", "--config", svrc, "--budget", "30", "--out", "b.jsonl"],
             ["run", "--config", svrc, "--seeds", "1,x"])
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(one)
    in_process = []
    for args in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(args)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    env = dict(os.environ,
               PYTHONPATH=str(Path(hardsum.__file__).resolve().parents[1]))
    processes = [subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         "import sys; from hardsum.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *args],
        cwd=fresh, env=env, capture_output=True, text=True, check=False)
        for args in calls]
    assert in_process == [(p.returncode, p.stdout, p.stderr)
                          for p in processes]
    build = importlib.import_module("hardsum.cli.main")._build_parser
    assert build() is build()
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2]
    files = sorted(path.name for path in fresh.iterdir())
    assert files == ["a.seed1.jsonl", "a.seed2.jsonl", "b.jsonl", "rep.json"]
    assert sorted(path.name for path in one.iterdir()) == files
    for name in files:
        assert (one / name).read_bytes() == (fresh / name).read_bytes()
