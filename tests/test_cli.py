import json
from pathlib import Path

import numpy as np
import pytest

from nullrec.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "twostate.json"
    path.write_text(json.dumps({
        "states": [0, 1],
        "P": [[0.5, 0.5], [0.5, 0.5]],
        "s": [0.5, 0.5],
        "nu": [0.5, 0.5],
    }))
    return path


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "indep.json"
    path.write_text(json.dumps({
        "family": "INDEP",
        "f": {"kind": "linear", "a": 1.0, "b": 0.0},
        "x0": 0.0,
    }))
    return path


class TestSimulate:
    def test_finite_chain(self, chain_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--chain", str(chain_path), "--n", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x,w,y" and len(lines) == 52
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "simulate" and meta["config"]["seed"] == 3

    def test_walk_spec(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--spec", str(spec_path), "--n", "1000",
                     "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    def test_idempotent_byte_identical(self, chain_path, tmp_path):
        before = chain_path.read_bytes()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            main(["simulate", "--chain", str(chain_path), "--n", "200",
                  "--seed", "9", "--out", str(out)])
        assert (outs[0] / "trajectory.csv").read_bytes() == \
            (outs[1] / "trajectory.csv").read_bytes()
        assert (outs[0] / "metadata.json").read_bytes() == \
            (outs[1] / "metadata.json").read_bytes()
        assert chain_path.read_bytes() == before

    def test_exclusive_inputs(self, chain_path, spec_path, tmp_path):
        code = main(["simulate", "--chain", str(chain_path), "--spec", str(spec_path),
                     "--n", "10", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_file_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["simulate", "--chain", str(tmp_path / "absent.json"),
                     "--n", "10", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigParse" and err["exit_code"] == 2

    def test_unwritable_csv_is_io_failure(self, chain_path, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        code = main(["simulate", "--chain", str(chain_path), "--n", "10", "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoFailure" and err["exit_code"] == 3
        assert not (out / "metadata.json").exists()

    @pytest.mark.parametrize("spec", [{"family": "INDEP", "params": {"sigma_W": 3.0}},
                                      {"family": "INDEP", "f": {"kind": "sin"}},
                                      {"family": "INDEP", "f": {"kind": "table", "xs": [0, 2, 1],
                                                                "ys": [0, 1, 2]}}])
    def test_unknown_spec_key_or_bad_table_exit_4(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert_invalid_spec_exit(["simulate", "--spec", str(path), "--n", "10"], tmp_path, capsys)

    def test_invalid_chain_maps_to_validation_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "states": [0, 1],
            "P": [[0.5, 0.5], [0.5, 0.5]],
            "s": [0.8, 0.8],
            "nu": [0.7, 0.3],
        }))
        assert main(["simulate", "--chain", str(bad), "--n", "10",
                     "--out", str(tmp_path / "x")]) == 4


EXIT_CODES = {
    "NullrecError": 1, "ConfigParse": 2, "IoFailure": 3,
    "ValidationError": 4, "NotStochastic": 4, "MinorizationViolated": 4, "NotIrreducible": 4,
    "InvalidSpec": 4, "InvalidHalfwidth": 4, "UnknownProcessFamily": 4, "WrongFamily": 4,
    "NumericError": 5, "SeriesDiverges": 5, "TruncationInsufficient": 5,
    "CoefficientMassDeficit": 5, "OrderTooLarge": 5, "NegativeVariance": 5, "SamplingStalled": 5,
    "EmptyDataError": 6, "EmptyNeighborhood": 6, "EmptyOccupation": 6,
    "AllNeighborhoodsEmpty": 6, "TooFewValues": 6,
    "ExperimentError": 7, "AllRejected": 7, "IncomparableProtocols": 7,
}


def _error_classes(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


def test_every_error_class_has_a_pinned_exit_code():
    from nullrec.errors import NullrecError
    assert sorted(c.__name__ for c in _error_classes(NullrecError)) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", EXIT_CODES)
def test_error_exit_code(name, chain_path, monkeypatch, capsys):
    import nullrec.cli as cli
    import nullrec.errors as errors

    cls = getattr(errors, name)
    assert cls.exit_code == EXIT_CODES[name]

    def fail(_args):
        exc = cls.__new__(cls)
        Exception.__init__(exc, "injected")
        raise exc

    monkeypatch.setattr(cli, "_cmd_autocov", fail)
    assert cli.main(["autocov", "--chain", str(chain_path), "--g", "1,-1"]) == EXIT_CODES[name]
    report = json.loads(capsys.readouterr().err.strip())
    assert report == {"error": name, "message": "injected", "exit_code": EXIT_CODES[name]}


GOOD_CHAIN = {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]], "s": [0.5, 0.5],
              "nu": [0.5, 0.5]}
MALFORMED_CHAINS = {
    "unparseable_entry": ({**GOOD_CHAIN, "P": [["a", 0.5], [0.5, 0.5]]}, "ConfigParse", 2),
    "ragged_P": ({**GOOD_CHAIN, "P": [[0.5, 0.5], [1.0]]}, "ConfigParse", 2),
    "nan_entry": ({**GOOD_CHAIN, "P": [["nan", 0.5], [0.5, 0.5]]}, "InvalidSpec", 4),
    "one_row_P": ({**GOOD_CHAIN, "P": [[0.5, 0.5]]}, "InvalidSpec", 4),
    "short_s": ({**GOOD_CHAIN, "s": [0.5]}, "InvalidSpec", 4),
    "extra_key": ({**GOOD_CHAIN, "pi": [0.5, 0.5]}, "InvalidSpec", 4),
}


class TestMalformedChainFiles:
    """Every malformed chain file ends in its documented exit code and one
    JSON line on stderr, never a traceback."""

    @staticmethod
    def assert_one_error_line(capsys, error, code):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == error and report["exit_code"] == code

    @pytest.mark.parametrize("case", MALFORMED_CHAINS)
    def test_through_chain(self, case, tmp_path, capsys):
        chain, error, code = MALFORMED_CHAINS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(chain))
        assert main(["moments-check", "--chain", str(path), "--g", "1,0", "--m", "1"]) == code
        self.assert_one_error_line(capsys, error, code)

    @pytest.mark.parametrize("case", MALFORMED_CHAINS)
    def test_through_finite_product_spec(self, case, tmp_path, capsys):
        chain, error, code = MALFORMED_CHAINS[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "FINITE_PRODUCT",
                                    "params": {"x_chain": GOOD_CHAIN, "w_chain": chain}}))
        out = tmp_path / "run"
        assert main(["simulate", "--spec", str(path), "--n", "10", "--out", str(out)]) == code
        self.assert_one_error_line(capsys, error, code)
        assert not out.exists()


class TestEstimate:
    def test_writes_curve(self, spec_path, tmp_path):
        out = tmp_path / "est"
        assert main(["estimate", "--spec", str(spec_path), "--n", "4000",
                     "--seed", "2", "--x-eval", "0.0", "1.0", "--out", str(out)]) == 0
        lines = (out / "estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "x_eval,f_hat,h,sum_k,t_c,p_hat_c,studentized"
        assert len(lines) == 3

    def test_unreachable_point_exit_code(self, spec_path, tmp_path):
        code = main(["estimate", "--spec", str(spec_path), "--n", "50",
                     "--seed", "2", "--x-eval", "500.0", "--out", str(tmp_path / "e")])
        assert code == 6

    def test_fixed_bandwidth_and_kernel_choice(self, spec_path, tmp_path):
        out = tmp_path / "est2"
        assert main(["estimate", "--spec", str(spec_path), "--n", "2000",
                     "--seed", "4", "--x-eval", "0.0", "--h", "0.8",
                     "--kernel", "gaussian_truncated", "--kernel-c", "2.0",
                     "--out", str(out)]) == 0
        row = (out / "estimate.csv").read_text().strip().splitlines()[1]
        assert row.split(",")[2] == "0.80000000000000004"


class TestClt:
    def _protocol_file(self, tmp_path, base_seed=5):
        path = tmp_path / "proto.json"
        path.write_text(json.dumps({
            "id": "tiny",
            "mode": "modal",
            "process": {"family": "INDEP", "f": {"kind": "linear", "a": 1.0, "b": 0.0}},
            "n": [200, 400],
            "reps": 25,
            "base_seed": base_seed,
        }))
        return path

    def test_runs_and_writes_summary(self, tmp_path, capsys):
        proto = self._protocol_file(tmp_path)
        out = tmp_path / "clt"
        assert main(["clt", "--protocol", str(proto), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3  # header + one row per size
        assert (out / "reps_tiny-200.csv").exists()
        assert (out / "reps_tiny-400.csv").exists()
        stdout = capsys.readouterr().out
        assert "trend: size=200" in stdout and "trend: size=400" in stdout

    def test_seed_override_changes_values(self, tmp_path):
        proto = self._protocol_file(tmp_path)
        out_a, out_b, out_c = (tmp_path / k for k in "abc")
        main(["clt", "--protocol", str(proto), "--out", str(out_a)])
        main(["clt", "--protocol", str(proto), "--out", str(out_b), "--seed", "77"])
        main(["clt", "--protocol", str(proto), "--out", str(out_c), "--seed", "77"])
        a = (out_a / "summary.csv").read_bytes()
        b = (out_b / "summary.csv").read_bytes()
        c = (out_c / "summary.csv").read_bytes()
        assert a != b and b == c

    @pytest.mark.parametrize("seed", ["-3", str(2 ** 64)])
    def test_seed_out_of_range_exit_4(self, seed, tmp_path, capsys):
        proto = self._protocol_file(tmp_path)
        assert_invalid_spec_exit(["clt", "--protocol", str(proto), "--seed", seed],
                                 tmp_path, capsys)

    def test_base_seed_out_of_range_exit_4(self, tmp_path, capsys):
        proto = self._protocol_file(tmp_path, base_seed=-1)
        assert_invalid_spec_exit(["clt", "--protocol", str(proto)], tmp_path, capsys)

    def test_threads_flag_and_env(self, tmp_path, monkeypatch):
        proto = self._protocol_file(tmp_path)
        out_a, out_b = tmp_path / "t1", tmp_path / "t2"
        main(["clt", "--protocol", str(proto), "--out", str(out_a), "--threads", "1"])
        monkeypatch.setenv("NULLREC_THREADS", "2")
        main(["clt", "--protocol", str(proto), "--out", str(out_b)])
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_bad_env_threads(self, tmp_path, monkeypatch):
        proto = self._protocol_file(tmp_path)
        monkeypatch.setenv("NULLREC_THREADS", "lots")
        assert main(["clt", "--protocol", str(proto), "--out", str(tmp_path / "x")]) == 2

    # Only counts below 1: a large count would start that many processes.
    @pytest.mark.parametrize("flag, env", [("0", None), ("-1", None), (None, "0")])
    def test_thread_counts_below_one_exit_4(self, flag, env, tmp_path, monkeypatch, capsys):
        import nullrec.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("run_protocols was called")

        monkeypatch.setattr(cli, "run_protocols", never)
        monkeypatch.delenv("NULLREC_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("NULLREC_THREADS", env)
        argv = ["clt", "--protocol", str(self._protocol_file(tmp_path))]
        assert_invalid_spec_exit(argv + (["--threads", flag] if flag else []), tmp_path, capsys)

    @pytest.mark.parametrize("bandwidth", [{"h": 0}, {"c0": -1}])
    def test_bad_bandwidth_exit_4(self, bandwidth, tmp_path, capsys):
        proto = self._protocol_file(tmp_path)
        proto.write_text(json.dumps(dict(json.loads(proto.read_text()), bandwidth=bandwidth)))
        out = tmp_path / "never"
        assert main(["clt", "--protocol", str(proto), "--out", str(out)]) == 4
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidSpec"

    @pytest.mark.parametrize("where, key", [(None, "kernal"), (None, "base_sed"),
                                            (None, "x_eval"), ("bandwidth", "C0"),
                                            ("kernel", "c")])
    def test_unknown_protocol_key_exit_4(self, where, key, tmp_path, capsys):
        proto = self._protocol_file(tmp_path)
        obj = json.loads(proto.read_text())
        (obj.setdefault(where, {}) if where else obj)[key] = 1.0
        proto.write_text(json.dumps(obj))
        assert_invalid_spec_exit(["clt", "--protocol", str(proto)], tmp_path, capsys)

    def test_unknown_process_key_exit_4(self, tmp_path, capsys):
        proto = self._protocol_file(tmp_path)
        obj = json.loads(proto.read_text())
        obj["process"]["params"] = {"sigma_W": 3.0}
        proto.write_text(json.dumps(obj))
        assert_invalid_spec_exit(["clt", "--protocol", str(proto)], tmp_path, capsys)

    def test_nan_x0_exit_4(self, tmp_path, capsys):
        # Unchecked, it reaches modal_value's pilot bandwidth as a ValueError.
        proto = self._protocol_file(tmp_path)
        obj = json.loads(proto.read_text())
        obj["process"]["x0"] = "nan"
        proto.write_text(json.dumps(obj))
        assert_invalid_spec_exit(["clt", "--protocol", str(proto)], tmp_path, capsys)

    @pytest.mark.parametrize("process, window", [({"family": "INDEP", "params": {"sigma_e": -1}},
                                                  [5.0, 10.0]),
                                                 ({"family": "INDEP"}, ["-inf", 10.0])])
    def test_bad_fixed_point_inputs_exit_4(self, process, window, tmp_path, capsys):
        # Unchecked, a negative sigma_e rejects every replication (exit 7),
        # and an infinite window end reaches local_bandwidth as a ValueError.
        proto = tmp_path / "fp.json"
        proto.write_text(json.dumps({"id": "fp", "mode": "fixed_point", "process": process,
                                     "x_eval": 7.5, "window": window, "local_count": 20,
                                     "reps": 5, "max_path_length": 20_000}))
        assert_invalid_spec_exit(["clt", "--protocol", str(proto)], tmp_path, capsys)

    def test_trend_violation_is_reported(self, tmp_path, capsys):
        # f = x^2 is curved, so the smoothing bias of the estimate moves the
        # studentized values off N(0, 1).
        xs = np.linspace(-200.0, 200.0, 401)
        proto = tmp_path / "square.json"
        proto.write_text(json.dumps({
            "id": "square", "mode": "modal",
            "process": {"family": "INDEP",
                        "f": {"kind": "table", "xs": xs.tolist(), "ys": (xs ** 2).tolist()}},
            "n": [200, 400], "reps": 60, "base_seed": 3}))
        assert main(["clt", "--protocol", str(proto), "--out", str(tmp_path / "out")]) == 0
        assert "trend: violation (largest size rejects N(0, 1)" in capsys.readouterr().out


class TestAlgebraCommands:
    def test_moments_check_output(self, chain_path, capsys):
        assert main(["moments-check", "--chain", str(chain_path), "--g", "1,0",
                     "--m", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert out[0].startswith("m=1 algebraic=1 enumeration=")
        assert "|diff|=" in out[3]

    def test_moments_check_csv(self, chain_path, tmp_path):
        out = tmp_path / "mc"
        assert main(["moments-check", "--chain", str(chain_path), "--g", "1,0",
                     "--m", "2", "--out", str(out)]) == 0
        lines = (out / "moments.csv").read_text().strip().splitlines()
        assert lines[0] == "m,algebraic,enumeration,abs_diff,enum_tail_bound"
        assert len(lines) == 3

    def test_moments_check_rejects_order_above_cap_before_enumerating(
            self, chain_path, tmp_path, monkeypatch, capsys):
        import nullrec.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("enumerated_block_moments was called")

        monkeypatch.setattr(cli, "enumerated_block_moments", never)
        out = tmp_path / "never"
        assert main(["moments-check", "--chain", str(chain_path), "--g", "1,0",
                     "--m", "7", "--out", str(out)]) == 5
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "OrderTooLarge"

    def test_bad_vector(self, chain_path):
        assert main(["moments-check", "--chain", str(chain_path), "--g", "a,b",
                     "--m", "2"]) == 2

    def test_autocov(self, chain_path, tmp_path, capsys):
        out = tmp_path / "ac"
        assert main(["autocov", "--chain", str(chain_path), "--g", "1,0",
                     "--ell-max", "5", "--out", str(out)]) == 0
        assert "sigma2_series=" in capsys.readouterr().out
        lines = (out / "autocov.csv").read_text().strip().splitlines()
        assert len(lines) == 12  # header + ell in [-5, 5]
        config = json.loads((out / "metadata.json").read_text())["config"]
        assert "tol" not in config and config["sigma2_series"] == pytest.approx(
            config["sigma2_blocks"], rel=1e-12)
        with pytest.raises(SystemExit):  # the series is a solve: there is no --tol
            main(["autocov", "--chain", str(chain_path), "--g", "1,0", "--tol", "1e-8"])

    def test_embedded(self, chain_path, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({
            "states": ["lo", "hi"],
            "P": [[0.7, 0.3], [0.4, 0.6]],
            "s": [0.3, 0.3],
            "nu": [0.5, 0.5],
        }))
        out = tmp_path / "emb"
        assert main(["embedded", "--chain", str(chain_path), "--wchain", str(wpath),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "coefficient_mass=" in stdout
        lines = (out / "embedded.csv").read_text().strip().splitlines()
        assert lines[0] == "from_state,lo,hi"
        assert (out / "gap_coefficients.csv").exists()
        assert "tol" not in json.loads((out / "metadata.json").read_text())["config"]
        with pytest.raises(SystemExit) as exc:  # the series stops at 1e-10: there is no --tol
            main(["embedded", "--chain", str(chain_path), "--wchain", str(wpath), "--tol", "1e-8"])
        assert exc.value.code == 2

    def test_embedded_reports_the_total_gap_mass(self, tmp_path, capsys):
        # The reflected walk on 0..100 regenerating at its middle state: its
        # first 32 gap coefficients hold only about 0.86 of the mass, which
        # is 1 in total.
        d, c = 101, 50
        P = 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
        P[0, 0] = P[-1, -1] = 0.5
        chain = tmp_path / "bd101.json"
        chain.write_text(json.dumps({"states": list(range(d)), "P": P.tolist(),
                                     "s": P[:, c].tolist(), "nu": np.eye(d)[c].tolist()}))
        out = tmp_path / "emb"
        assert main(["embedded", "--chain", str(chain), "--wchain",
                     str(CONFIGS / "threestate.json"), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split()[0]
        assert printed.startswith("coefficient_mass=")
        mass = float(printed.split("=")[1])
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert json.loads((out / "metadata.json").read_text())["config"]["coefficient_mass"] == mass
        coeffs = np.loadtxt(out / "gap_coefficients.csv", delimiter=",", skiprows=1)[:, 1]
        assert len(coeffs) == 32 and coeffs.sum() < 0.9


def assert_invalid_spec_exit(argv, tmp_path, capsys):
    """argv exits 4 with one InvalidSpec JSON line on stderr and no output."""
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 4
    assert not out.exists()
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "InvalidSpec" and err["exit_code"] == 4


class TestAlgebraArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["moments-check", "--g", "1,0,0", "--m", "2"],
        ["moments-check", "--g", "1,0", "--m", "2", "--start", "7"],
        ["moments-check", "--g", "1,0", "--m", "2", "--start", "first"],
        ["moments-check", "--g", "1,0", "--m", "0"],
        ["moments-check", "--g", "1,0", "--m", "2", "--depth", "-1"],
        ["autocov", "--g", "1"],
        ["autocov", "--g", "1,0", "--f", "1,0,0"],
        ["autocov", "--g", "1,0", "--ell-max", "-1"],
        ["autocov", "--g", "nan,0"],
        ["autocov", "--g", "1,inf"],
        ["autocov", "--g", "1,0", "--f", "nan,0"],
        ["embedded", "--coeffs", "-1"],
    ])
    def test_out_of_range_argument_exit_4(self, argv, chain_path, tmp_path, capsys):
        chains = ["--chain", str(chain_path)]
        if argv[0] == "embedded":
            chains += ["--wchain", str(chain_path)]
        assert_invalid_spec_exit(argv[:1] + chains + argv[1:], tmp_path, capsys)


class TestSimulateEstimateArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--chain", str(CONFIGS / "twostate.json"), "--n", "-5"],
        ["simulate", "--chain", str(CONFIGS / "twostate.json"), "--n", "-1"],
        ["simulate", "--spec", str(CONFIGS / "rw_indep.json"), "--n", "-1"],
        *(["estimate", "--spec", str(CONFIGS / "rw_indep.json"), "--n", "500", "--x-eval", "0",
           flag, value]
          for flag, value in [("--h", "-1"), ("--h", "0"), ("--h", "nan"), ("--h", "inf"),
                              ("--c0", "-1"), ("--c0", "0"), ("--c0", "nan")]),
        *(["estimate", "--spec", str(CONFIGS / "rw_indep.json"), "--n", "500", *rest]
          for rest in [["--x-eval", "0", "--kernel", "gaussian_truncated", "--kernel-c", c]
                       for c in ("nan", "inf", "0")] + [["--x-eval", "nan"], ["--x-eval", "0", "inf"]]),
        *([*cmd, "--seed", seed]
          for cmd in (["simulate", "--chain", str(CONFIGS / "twostate.json"), "--n", "20"],
                      ["simulate", "--spec", str(CONFIGS / "rw_indep.json"), "--n", "20"],
                      ["estimate", "--spec", str(CONFIGS / "rw_indep.json"), "--n", "500",
                       "--x-eval", "0"])
          for seed in ("-1", str(2 ** 64))),
    ])
    def test_out_of_range_argument_exit_4(self, argv, tmp_path, capsys):
        assert_invalid_spec_exit(argv, tmp_path, capsys)


class TestShippedConfigs:
    def test_chain_configs_load(self, tmp_path):
        for name in ("twostate", "threestate"):
            assert main(["moments-check", "--chain", str(CONFIGS / f"{name}.json"),
                         "--g", "1" + ",0" * (2 if name == "threestate" else 1),
                         "--m", "1"]) == 0

    def test_protocol_configs_parse(self):
        from nullrec.montecarlo import protocols_from_dict
        for name in ("clt_fixed_point", "clt_modal_indep", "clt_modal_shared"):
            protos = protocols_from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
            assert len(protos) >= 2
