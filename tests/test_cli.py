"""CLI tests: subcommands, file round-trips, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twostage import harness
from twostage.cli import build_parser, main
from twostage.instances import parse_instance

import helpers


def run_gen(tmp_path, name="inst.json", kind="coverage", n=6, m=2, k=2, l=3, seed=7):
    path = tmp_path / name
    code = main([
        "gen", "--kind", kind, "--n", str(n), "--m", str(m),
        "--k", str(k), "--l", str(l), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def read_rows(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


class TestGen:
    def test_writes_parseable_instance(self, tmp_path):
        path = run_gen(tmp_path)
        instance = parse_instance(path.read_bytes())
        assert (instance.n, instance.m, instance.k, instance.l) == (6, 2, 2, 3)

    def test_same_seed_same_bytes(self, tmp_path):
        a = run_gen(tmp_path, "a.json")
        b = run_gen(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--kind", "modular", "--n", "3", "--m", "1",
                  "--k", "1", "--l", "1", "--seed", "0",
                  "--out", str(tmp_path / "x.json")])
        assert info.value.code == 2

    def test_invalid_bounds_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--kind", "coverage", "--n", "3", "--m", "1",
                     "--k", "1", "--l", "4", "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "l=4 exceeds n=3" in capsys.readouterr().err


class TestSolve:
    def test_sampling_csv(self, tmp_path):
        instance = run_gen(tmp_path)
        out = tmp_path / "runs.csv"
        code = main(["solve", "--instance", str(instance), "--algo", "sampling-greedy",
                     "--trials", "4", "--seed", "11", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == list(
            ("instance_id", "algorithm", "seed", "F_reported", "F_mode",
             "sum_fT", "F_opt", "ratio", "evals", "wall_ms")
        )
        assert len(rows) == 1 + 4 + 2
        for row in rows[1:5]:
            assert row[0] == "inst"
            assert row[1] == "sampling_greedy"
        assert [row[2] for row in rows[1:5]] == ["11", "12", "13", "14"]

    def test_algo_name_mapping(self, tmp_path):
        instance = run_gen(tmp_path, n=4, m=1, k=1, l=2)
        for flag, column in (
            ("replacement-greedy", "replacement_greedy"),
            ("random", "random_baseline"),
            ("brute-force", "brute_force"),
        ):
            out = tmp_path / f"{column}.csv"
            assert main(["solve", "--instance", str(instance), "--algo", flag,
                         "--out", str(out)]) == 0
            assert read_rows(out)[1][1] == column

    def test_brute_force_row_is_seedless_self_ratio(self, tmp_path):
        instance = run_gen(tmp_path, n=4, m=1, k=1, l=2)
        out = tmp_path / "bf.csv"
        main(["solve", "--instance", str(instance), "--algo", "brute-force",
              "--out", str(out)])
        row = read_rows(out)[1]
        assert row[2] == ""
        assert row[3] == row[6]
        assert row[7] == "1"

    def test_deterministic_modulo_wall_ms(self, tmp_path):
        instance = run_gen(tmp_path)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["solve", "--instance", str(instance), "--algo", "sampling-greedy",
                  "--trials", "5", "--seed", "3", "--out", str(out)])
            outs.append([row[:-1] for row in read_rows(out)])
        assert outs[0] == outs[1]

    def test_guard_exit_3(self, tmp_path, capsys):
        # Monotone coverage keeps every round on a real item, so the reduced
        # set reaches all 40 items and exact evaluation must refuse.
        instance = run_gen(tmp_path, kind="coverage", n=50, m=1, k=6, l=40)
        code = main(["solve", "--instance", str(instance), "--algo", "replacement-greedy",
                     "--f-eval", "exact", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "use evaluate_F_greedy" in capsys.readouterr().err

    def test_missing_instance_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--algo", "random", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "cannot read instance file" in capsys.readouterr().err

    def test_corrupt_instance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1}')
        code = main(["solve", "--instance", str(bad), "--algo", "random",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "missing field" in capsys.readouterr().err

    def test_ground_set_past_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # An edgeless cut ties n to no descriptor length; the solver must never
        # be reached, since scoring would walk range(n).
        monkeypatch.setattr(harness, "_solve", lambda *a: pytest.fail("solver reached"))
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n": 1' + "0" * 100 + ', "k": 1, "l": 1, '
            '"functions": [{"type": "graph_cut", "edges": []}]}'
        )
        code = main(["solve", "--instance", str(path), "--algo", "sampling-greedy",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "exceeds the ground-set limit of 1000000" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        instance = run_gen(tmp_path)
        code = main(["solve", "--instance", str(instance), "--algo", "random",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestEval:
    def write_zoo(self, tmp_path):
        from twostage.instances import Instance, serialize_instance

        instance = Instance(3, 1, 2, (helpers.zoo_coverage(), helpers.path_cut()))
        path = tmp_path / "zoo.json"
        path.write_text(serialize_instance(instance) + "\n")
        return path

    def test_exact_json(self, tmp_path, capsys):
        path = self.write_zoo(tmp_path)
        code = main(["eval", "--instance", str(path), "--set", "0,1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"F": 4.0, "mode": "exact", "witnesses": [[0], [1]]}

    def test_greedy_json(self, tmp_path, capsys):
        path = self.write_zoo(tmp_path)
        code = main(["eval", "--instance", str(path), "--set", "0, 1",
                     "--f-eval", "greedy"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "greedy"
        assert payload["F"] == 4.0

    def test_empty_set(self, tmp_path, capsys):
        path = self.write_zoo(tmp_path)
        assert main(["eval", "--instance", str(path), "--set", ""]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["F"] == 0.0
        assert payload["witnesses"] == [[], []]

    def test_bad_tokens_exit_2(self, tmp_path, capsys):
        path = self.write_zoo(tmp_path)
        assert main(["eval", "--instance", str(path), "--set", "0,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_out_of_range_exit_2(self, tmp_path, capsys):
        path = self.write_zoo(tmp_path)
        assert main(["eval", "--instance", str(path), "--set", "9"]) == 2
        assert "out of range" in capsys.readouterr().err
        # Id n (3 here), one past the ground set, is out of range like any other.
        assert main(["eval", "--instance", str(path), "--set", "0,3"]) == 2
        assert "item 3 out of range, ground set has 3 items" in capsys.readouterr().err

    def test_guard_exit_3(self, tmp_path, capsys):
        instance = run_gen(tmp_path, kind="coverage", n=50, m=1, k=6, l=1)
        items = ",".join(str(i) for i in range(40))
        code = main(["eval", "--instance", str(instance), "--set", items])
        assert code == 3
        assert "subset evaluations per function" in capsys.readouterr().err


class TestBench:
    def test_sweep_two_entries(self, tmp_path):
        instance = run_gen(tmp_path, n=5, m=1, k=2, l=2)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps([
            {"instance": str(instance), "algorithm": "sampling_greedy",
             "trials": 3, "base_seed": 5},
            {"generate": {"kind": "graph_cut", "n": 5, "m": 1, "k": 2, "l": 2,
                          "seed": 1},
             "id": "cut5", "algorithm": "replacement_greedy"},
        ]))
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out)
        ids = [row[0] for row in rows[1:5]]
        assert ids == ["cut5", "inst", "inst", "inst"]
        assert len(rows) == 1 + 4 + 4

    def test_default_generated_id(self, tmp_path):
        config = tmp_path / "one.json"
        config.write_text(json.dumps([
            {"generate": {"kind": "coverage", "n": 4, "m": 1, "k": 1, "l": 2,
                          "seed": 3},
             "algorithm": "random_baseline", "trials": 2},
        ]))
        out = tmp_path / "one.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
        assert read_rows(out)[1][0] == "coverage-n4-m1-k1-l2-s3"

    @pytest.mark.parametrize(
        ("entry", "message"),
        [
            ({"algorithm": "sampling_greedy"}, "exactly one of 'instance' or 'generate'"),
            ({"instance": "a", "generate": {}, "algorithm": "sampling_greedy"},
             "exactly one of 'instance' or 'generate'"),
            ({"instance": "a"}, "bench entry 0 is missing field(s): algorithm"),
            ({"instance": "a", "algorithm": "sampling_greedy", "bogus": 1},
             "unknown bench entry 0 field(s): bogus"),
            ({"generate": {"kind": "coverage"}, "algorithm": "sampling_greedy"},
             "bench entry 0 generate is missing field(s): k, l, m, n, seed"),
            ({"generate": {"kind": "coverage", "n": "5", "m": 1, "k": 1, "l": 1, "seed": 0},
              "algorithm": "sampling_greedy"},
             "n must be an integer"),
            ({"generate": {"kind": "coverage", "n": 5.0, "m": 1, "k": 1, "l": 1, "seed": 0},
              "algorithm": "sampling_greedy"},
             "n must be an integer"),
            ({"generate": {"kind": "coverage", "n": 5, "m": 1, "k": 1, "l": 1, "seed": [1]},
              "algorithm": "sampling_greedy"},
             "seed must be an integer"),
            ({"instance": 5, "algorithm": "sampling_greedy"},
             "bench entry 0: 'instance' must be a file path string"),
            ({"generate": {"kind": "coverage", "n": 3, "m": 1, "k": 1, "l": 1, "seed": 0},
              "id": "", "algorithm": "random_baseline"},
             "bench entry 0: 'id' must be a non-empty string"),
        ],
    )
    def test_entry_errors_exit_2(self, tmp_path, capsys, entry, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps([entry]))
        assert main(["bench", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_non_array_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        for content, message in [
            (b"{}", "must be a JSON array"),
            (b"[" * 100000, "config JSON is nested too deeply"),
            (b"\xff\xfe[]", "config is not UTF-8"),
            (b'[{"trials": 1' + b"0" * 5000 + b"}]", "config is not valid JSON"),
        ]:
            config.write_bytes(content)
            assert main(["bench", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
            assert message in capsys.readouterr().err

    def test_guard_exit_3(self, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text(json.dumps([
            {"generate": {"kind": "facility_location", "n": 40, "m": 1, "k": 3,
                          "l": 12, "seed": 0},
             "algorithm": "brute_force"},
        ]))
        assert main(["bench", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "brute-force optimum needs" in capsys.readouterr().err


class TestModuleEntry:
    """``python -m twostage`` runs the same CLI in a fresh interpreter."""

    def run_module(self, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
        return subprocess.run(
            [sys.executable, "-m", "twostage", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_gen_and_eval(self, tmp_path):
        path = tmp_path / "inst.json"
        done = self.run_module("gen", "--kind", "coverage", "--n", "4", "--m", "1",
                               "--k", "1", "--l", "2", "--seed", "0", "--out", str(path))
        assert done.returncode == 0, done.stderr
        assert parse_instance(path.read_bytes()).n == 4
        done = self.run_module("eval", "--instance", str(path), "--set", "9")
        assert done.returncode == 2
        assert "item 9 out of range" in done.stderr


def test_parser_prog_name():
    assert build_parser().prog == "twostage"
