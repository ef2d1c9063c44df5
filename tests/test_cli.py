import json

import pytest

from cobschur.cli import main, EXIT_OK, EXIT_VERIFY, EXIT_INVALID, MAX_N
from cobschur import RingContext, Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_empty_damon_type_is_one(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "new-schur",
                           "--lambda", "0", "--n", "2", "--deg", "3")
        assert code == EXIT_OK and out.strip() == "1"

    def test_hl_additive_t_zero_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "hl",
                           "--lambda", "2,1", "--n", "3", "--mode", "additive",
                           "--t", "0", "--deg", "3")
        assert code == EXIT_OK
        from cobschur import oracles
        ctx = RingContext(n_x=3, deg_bound=3)
        assert out.strip() == oracles.classical_schur(
            RingContext(n_x=3, deg_bound=6), [2, 1], 3).truncate(3).text()

    def test_b_budget_validation(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "schur-s",
                           "--lambda", "2,1", "--n", "5", "--nb", "2",
                           "--deg", "3", "--mode", "additive")
        assert code == EXIT_INVALID
        assert "n_b >= 6" in err

    def test_increasing_lambda_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "schur-s",
                           "--lambda", "1,2", "--n", "2", "--deg", "2")
        assert code == EXIT_INVALID

    def test_sequence_family_accepts_raw(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "schur-seq",
                           "--lambda", "0,1", "--n", "2", "--deg", "2",
                           "--mode", "additive")
        assert code == EXIT_OK

    def test_json_round_trip_and_metadata(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "schur-s",
                           "--lambda", "1", "--n", "2", "--deg", "2",
                           "--out", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["A"] == 3 and doc["D"] == 2 and doc["mode"] == "universal"
        s = Series.from_json_dict(doc)
        assert not s.is_zero()

    def test_determinism(self, capsys):
        args = ("compute", "--family", "hl", "--lambda", "2,1", "--n", "3",
                "--deg", "3", "--out", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_custom_mode_log_assignment(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m1": "1", "m2": "0"}))
        code, out, _ = run(capsys, "compute", "--family", "schur-s",
                           "--lambda", "1", "--n", "2", "--deg", "2",
                           "--mode", "custom", "--m-file", str(path))
        assert code == EXIT_OK
        # with m1 = 1 the degree-2 correction a_{1,1} x1 x2 becomes -2 x1 x2
        assert out.strip() == "x1 + x2 - 2*x1*x2"

    def test_negative_degree_rejected(self, capsys):
        code, out, err = run(capsys, "compute", "--family", "schur-kl",
                             "--n", "2", "--lambda", "3,1", "--deg", "-1")
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "--deg" in err

    @pytest.mark.parametrize("n", ["7", "1000"])
    def test_n_above_limit_rejected(self, capsys, n):
        code, out, err = run(capsys, "compute", "--family", "schur-s",
                             "--n", n, "--deg", "3", "--lambda", "1")
        assert code == EXIT_INVALID
        assert out == "" and "MAX_N = %d" % MAX_N in err

    def test_thread_cap_is_deterministic(self, capsys, monkeypatch):
        args = ("compute", "--family", "schur-s", "--lambda", "2,1",
                "--n", "3", "--deg", "3", "--out", "json")
        monkeypatch.setenv("COBSCHUR_THREADS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("COBSCHUR_THREADS", "3")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestSegre:
    def test_bad_window_rejected(self, capsys):
        code, _, err = run(capsys, "segre", "--n", "2", "--kmin", "3",
                           "--kmax", "2", "--deg", "3")
        assert code == EXIT_INVALID

    def test_additive_window_values(self, capsys):
        code, out, _ = run(capsys, "segre", "--n", "2", "--kmin", "-2",
                           "--kmax", "2", "--mode", "additive", "--deg", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["k_min"] == -2 and doc["k_max"] == 2
        # negative coefficients vanish additively and k=0 gives 1
        assert "-1" not in doc["coeffs"] and "-2" not in doc["coeffs"]
        assert doc["coeffs"]["0"] == [{"den": "1", "exps": {}, "num": "1"}]

    def test_weight_cap_above_packed_maximum_rejected(self, capsys):
        # needs weight cap 2*5 + 2*2 + 4 + 70 = 88 > 63: rejected up front
        code, out, err = run(capsys, "segre", "--n", "2", "--kmin", "-70",
                             "--kmax", "2")
        assert code == EXIT_INVALID
        assert out == "" and "weight cap 88" in err


class TestOracle:
    def test_schur_oracle(self, capsys):
        code, out, _ = run(capsys, "oracle", "--family", "schur",
                           "--lambda", "2,1", "--n", "3")
        assert code == EXIT_OK and "x1^2*x2" in out


class TestVerify:
    def test_fgl_axioms_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "fgl-axioms")
        assert code == EXIT_OK
        assert "16/16" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-suite")
        assert code == EXIT_INVALID

    def test_capped_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "hl-collapse",
                           "--max-weight", "2", "--n", "2")
        assert code == EXIT_OK

    def test_cap_selecting_no_identities_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "hl-collapse", "--n", "0")
        assert code == EXIT_INVALID
        assert out == "" and "no identities" in err

    @pytest.mark.parametrize("n", ["7", "1000"])
    def test_n_above_limit_rejected(self, capsys, n):
        code, out, err = run(capsys, "verify", "hl-collapse", "--n", n)
        assert code == EXIT_INVALID
        assert out == "" and "MAX_N = %d" % MAX_N in err

    def test_failing_suite_exits_one(self, capsys):
        # the empty-partition suite carries the documented red identity
        code, out, _ = run(capsys, "verify", "empty-partition")
        assert code == EXIT_VERIFY
        assert "FAIL" in out


class TestPushforward:
    def test_full_flag_telescoping_additive(self, capsys, tmp_path):
        ctx = RingContext(n_x=2, m_order=2, deg_bound=5)
        f = Series.monomial(ctx, {"x1": 1})
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        code, out, _ = run(capsys, "pushforward", "--input", str(path),
                           "--operator", "full-flag", "--n", "2",
                           "--mode", "additive")
        assert code == EXIT_OK and out.strip() == "1"

    def test_full_flag_universal_leading_term(self, capsys, tmp_path):
        ctx = RingContext(n_x=2, m_order=2, deg_bound=5)
        f = Series.monomial(ctx, {"x1": 1})
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        code, out, _ = run(capsys, "pushforward", "--input", str(path),
                           "--operator", "full-flag", "--n", "2")
        assert code == EXIT_OK
        assert out.strip().startswith("1 + 4*m1^2*x1*x2")

    def test_grassmannian_needs_q(self, capsys, tmp_path):
        ctx = RingContext(n_x=2, m_order=2, deg_bound=4)
        path = tmp_path / "f.json"
        path.write_text(Series.const(ctx, 1).to_json())
        code, _, err = run(capsys, "pushforward", "--input", str(path),
                           "--operator", "grassmannian")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("argv", [
        ("--operator", "full-flag", "--n", "3"),
        ("--operator", "grassmannian", "--n", "2", "--q", "3"),
        ("--operator", "partial-flag", "--n", "2", "--lambda", "1,1,1"),
        ("--operator", "full-flag", "--n", "7"),
    ])
    def test_bad_operator_input_rejected(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, "compute", "--family", "schur-s", "--n", "2",
                           "--lambda", "1", "--deg", "3", "--out", "json")
        assert code == EXIT_OK
        path = tmp_path / "f.json"
        path.write_text(out)
        code, out, err = run(capsys, "pushforward", "--input", str(path), *argv)
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
