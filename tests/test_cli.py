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

    def test_damon_b_budget_is_what_the_block_monomial_reads(self, capsys):
        # (x|b)^[2,2] on two variables reads b1, b2 only, so --nb 2 is
        # enough and a third b-variable changes nothing
        outs = [run(capsys, "compute", "--family", "new-schur", "--lambda",
                    "2,2", "--n", "2", "--nb", nb) for nb in ("2", "3")]
        assert outs[0][0] == outs[1][0] == EXIT_OK, outs[0][2]
        assert outs[0][1] == outs[1][1] != ""

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

    @pytest.mark.parametrize("family", ["hl", "schur-s"])
    def test_determinism(self, capsys, family):
        args = ("compute", "--family", family, "--lambda", "2,1", "--n", "3",
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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_rejected(self, capsys, n):
        code, out, err = run(capsys, "compute", "--family", "schur-s",
                             "--n", n, "--deg", "3")
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:")
        assert "--n must be at least 1" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("mode,deg,lam", [
        ("universal", 2, "1"),        # m3 has weight 3 above the cap 2
        ("universal", 2, "2,1"),
        ("multiplicative", 0, ""),    # beta has weight 1 above the cap 0
        ("multiplicative", 0, "1"),
    ])
    def test_generators_above_the_weight_cap(self, capsys, mode, deg, lam):
        # the cap --deg drops m_i and beta of weight above it; the output
        # equals the value computed with the default cap D + margin
        from cobschur import FormalGroupLaw, universal_schur_s
        code, out, err = run(capsys, "compute", "--family", "schur-s",
                             "--n", "3", "--A", "3", "--deg", str(deg),
                             "--mode", mode, "--lambda", lam)
        assert code == EXIT_OK, err
        scalars = ("beta",) if mode == "multiplicative" else ()
        ctx = RingContext(n_x=3, m_order=3 if mode == "universal" else 0,
                          deg_bound=deg + 4, scalars=scalars)
        parts = [int(p) for p in lam.split(",")] if lam else []
        want = universal_schur_s(FormalGroupLaw(ctx, mode), parts, 3)
        assert out.strip() == want.truncate(deg).text()

    @pytest.mark.parametrize("mode", ["universal", "multiplicative"])
    @pytest.mark.parametrize("family,lam", [
        ("schur-s", "1"), ("schur-s", ""), ("schur-kl", "1"), ("schur-kl", "2"),
    ])
    def test_b_values_keep_the_default_weight_cap(self, capsys, tmp_path,
                                                  mode, family, lam):
        # substituting b = 1 moves terms of (x,b)-degree above --deg into
        # the output; it must equal the value computed at the default cap
        from cobschur import FormalGroupLaw, universal_schur_s, universal_schur_kl
        path = tmp_path / "b.json"
        ones = {"b1": 1, "b2": 1, "b3": 1}
        path.write_text(json.dumps(ones))
        code, out, err = run(capsys, "compute", "--family", family,
                             "--n", "2", "--nb", "3", "--A", "2", "--deg", "1",
                             "--mode", mode, "--lambda", lam, "--b", str(path))
        assert code == EXIT_OK, err
        scalars = ("beta",) if mode == "multiplicative" else ()
        ctx = RingContext(n_x=2, n_b=3, m_order=2 if mode == "universal" else 0,
                          deg_bound=1 + 2, scalars=scalars)
        parts = [int(p) for p in lam.split(",")] if lam else []
        fn = universal_schur_s if family == "schur-s" else universal_schur_kl
        want = fn(FormalGroupLaw(ctx, mode), parts, 2, use_b=True)
        want = want.specialize(ones).truncate(1)
        assert out.strip() == want.text()


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
        # needs weight cap D + max(0, -k_min) = 5 + 70 = 75 > 59: rejected
        # up front
        code, out, err = run(capsys, "segre", "--n", "2", "--kmin", "-70",
                             "--kmax", "2")
        assert code == EXIT_INVALID
        assert out == "" and "weight cap 75" in err
        # F(u, v) is built to degree W + 1 <= 60, so W = 5 + 55 = 60 is
        # rejected up front as well, and W = 59 runs
        code, out, err = run(capsys, "segre", "--n", "2", "--kmin", "-55",
                             "--kmax", "2", "--deg", "5")
        assert code == EXIT_INVALID
        assert out == "" and "weight cap 60" in err and "maximum 59" in err
        code, out, err = run(capsys, "segre", "--n", "2", "--kmin", "-54",
                             "--kmax", "2", "--deg", "5", "--mode", "additive")
        assert code == EXIT_OK, err
        assert json.loads(out)["context"]["m_weight_cap"] == 59

    @pytest.mark.parametrize("argv, flag", [
        (("--n", "1", "--deg", "0"), "--deg must be at least 1"),
        (("--n", "1", "--deg", "-1"), "--deg must be at least 1"),
        (("--n", "0", "--deg", "-1"), "--deg must be at least 0"),
        (("--n", "-2", "--deg", "2"), "--n must be non-negative"),
        (("--n", "-2", "--deg", "0"), "--n must be non-negative"),
    ])
    def test_bad_deg_or_n_names_its_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, "segre", "--kmin", "0", "--kmax", "0",
                             "--mode", "additive", *argv)
        assert code == EXIT_INVALID
        assert out == "" and "error: " + flag in err

    def test_no_variables_allow_deg_zero(self, capsys):
        # with --n 0 there is no x_1, so --deg 0 gives the trivial window
        code, out, err = run(capsys, "segre", "--n", "0", "--kmin", "0",
                             "--kmax", "0", "--mode", "additive", "--deg", "0")
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["D"] == 0 and doc["coeffs"] == {
            "0": [{"den": "1", "exps": {}, "num": "1"}]}

    # sha256 of the whole stdout: a change to how the windows are
    # computed must not change a byte of what `segre` prints
    @pytest.mark.parametrize("argv, digest", [
        (("--n", "3", "--kmin", "-4", "--kmax", "5", "--mode", "universal"),
         "8f92add2bbceaf6565c23d285bf734abeb0c6a1cadcf51f271fbd76bdc5a073c"),
        (("--n", "3", "--kmin", "-4", "--kmax", "5", "--mode", "multiplicative"),
         "c5dc69bb5ee9429c03241c0de6b84d77afbd42d0652e3f710a8d6a64c67c38ec"),
        (("--n", "3", "--kmin", "-4", "--kmax", "5", "--mode", "additive"),
         "25262c849c491f86e55af340e46f22f3ff8c268a4d143caa61025c4746499253"),
        (("--n", "2", "--kmin", "-6", "--kmax", "4", "--deg", "4"),
         "b7dda1df3cda9d6b18d2e0943acc06817944a1a4d8d92f102de7d50283da4517"),
    ])
    def test_window_json_is_pinned(self, capsys, argv, digest):
        import hashlib
        code, out, err = run(capsys, "segre", *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_custom_mode_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m1": "1"}))
        code, out, err = run(capsys, "segre", "--n", "2", "--kmin", "-1",
                             "--kmax", "2", "--deg", "3", "--mode", "custom",
                             "--m-file", str(path))
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "graded" in err
        assert len(err.strip().splitlines()) == 1


class TestOracle:
    def test_schur_oracle(self, capsys):
        code, out, _ = run(capsys, "oracle", "--family", "schur",
                           "--lambda", "2,1", "--n", "3")
        assert code == EXIT_OK and "x1^2*x2" in out

    def test_schur_oracle_at_five_variables(self, capsys):
        # the context must hold the Vandermonde division, n(n-1)/2 = 10
        code, out, _ = run(capsys, "oracle", "--family", "schur",
                           "--lambda", "2,1", "--n", "5")
        assert code == EXIT_OK
        code, want, _ = run(capsys, "compute", "--family", "schur-s",
                            "--mode", "additive", "--lambda", "2,1",
                            "--n", "5", "--deg", "3")
        assert code == EXIT_OK and out == want and "x1^2*x2" in out

    @pytest.mark.parametrize("n", ["7", "1000"])
    def test_n_above_limit_rejected(self, capsys, n):
        code, out, err = run(capsys, "oracle", "--family", "schur",
                             "--n", n, "--lambda", "1")
        assert code == EXIT_INVALID
        assert out == "" and "MAX_N = %d" % MAX_N in err
        assert len(err.strip().splitlines()) == 1


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
