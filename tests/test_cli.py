import json

import pytest

from schurquot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma0_s1_text(capsys):
    code, out, _ = run(capsys, "gamma0", "s1", "--weights", "1,-2,2")
    assert code == 0
    assert out.strip() == "2/9"


def test_gamma0_su2_json(capsys):
    code, out, _ = run(capsys, "gamma0", "su2", "--d", "1,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gamma0"] == "5/16"
    assert data["schema"] == 1


def test_text_and_json_report_same_value(capsys):
    _, text_out, _ = run(capsys, "gamma0", "s1", "--weights", "1,-3")
    _, json_out, _ = run(capsys, "gamma0", "s1", "--weights", "1,-3", "--format", "json")
    assert json.loads(json_out)["gamma0"] == text_out.strip() == "1/4"


def test_gamma0_usage_error(capsys):
    code, _, err = run(capsys, "gamma0", "s1", "--weights", "1,2")
    assert code == 2
    assert "error" in err


def test_schur_expand_json(capsys):
    code, out, _ = run(
        capsys, "schur", "expand", "--outer", "1,1", "--nvars", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["nvars"] == 3
    assert len(data["terms"]) == 3
    assert all(t["coef"] == "1" for t in data["terms"])


def test_schur_expand_with_inner_strip(capsys):
    code, out, _ = run(
        capsys,
        "schur", "expand", "--outer", "2,1", "--inner", "1", "--nvars", "2",
        "--format", "json",
    )
    assert code == 0
    terms = json.loads(out)["terms"]
    # 4 fillings of (2,1)/(1) with 2 labels collapse to 3 monomials
    assert len(terms) == 3
    assert sum(int(t["coef"]) for t in terms) == 4


def test_schur_eval(capsys):
    code, out, _ = run(capsys, "schur", "eval", "--outer", "3,2,1,0", "--point", "1,1,2,2")
    assert code == 0
    assert out.strip() == "648"


def test_schur_eval_rational_point(capsys):
    code, out, _ = run(capsys, "schur", "eval", "--outer", "1", "--point", "1/2,1/3")
    assert code == 0
    assert out.strip() == "5/6"


def test_schur_decompose_roundtrip(capsys):
    code, out, _ = run(
        capsys, "schur", "decompose", "--outer", "2,1", "--nvars", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [layer["d"] for layer in data["layers"]] == [0, 1, 2]


def test_deriv_check(capsys):
    code, out, _ = run(
        capsys,
        "deriv", "check", "--rho", "2,1", "--lambda", "1,1", "--nvars", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_nonpositive"] is True
    assert data["max_coefficient"] <= 0
    assert data["term_count"] > 0


def test_deriv_check_emit_numerator(capsys):
    code, out, _ = run(
        capsys,
        "deriv", "check", "--rho", "1", "--lambda", "", "--nvars", "2",
        "--emit-numerator", "--format", "json",
    )
    assert code == 0
    assert "numerator" in json.loads(out)


def test_deriv_check_rejects_bad_pair(capsys):
    code, _, err = run(
        capsys, "deriv", "check", "--rho", "1,1", "--lambda", "2", "--nvars", "3"
    )
    assert code == 2


def test_deriv_sweep_small(capsys):
    code, out, _ = run(
        capsys, "deriv", "sweep", "--max-boxes", "3", "--max-nvars", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["checked"] > 0


def test_inject_run(capsys):
    code, out, _ = run(
        capsys,
        "inject", "run", "--rho", "5,4", "--lambda", "4,4", "--nlabels", "5",
        "--d", "1", "--e", "2", "--trace", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["region"]["root"] == [1, 5]
    assert data["output"]["s"]["outer"] == [5, 4]
    assert data["output"]["t"]["outer"] == [4, 4]


def test_inject_verify_single_instance(capsys):
    code, out, _ = run(
        capsys,
        "inject", "verify", "--rho", "3,1", "--lambda", "2,1", "--nlabels", "3",
        "--d", "0", "--e", "1", "--compare-greedy", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert data["instances"][0]["injective"] is True
    assert data["instances"][0]["stats"] == {"branched": 0}


def test_inject_verify_sweep(capsys):
    code, out, _ = run(
        capsys,
        "inject", "verify", "--max-cells", "4", "--max-labels", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_bound_s1(capsys):
    code, out, _ = run(capsys, "bound", "s1", "--weights", "1,-2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["upper_bound"] == "1/4"


def test_bound_su2(capsys):
    code, out, _ = run(capsys, "bound", "su2", "--d", "1,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True


def test_search_dim_2(capsys):
    code, out, _ = run(capsys, "search", "--dim", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {tuple(m["weights"]) for m in data["matches"]} == {(1, -1), (1, -3)}


def test_search_checkpoint_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHURQUOT_CHECKPOINT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "search", "--dim", "4")
    assert code == 0
    assert (tmp_path / "search-dim4.json").exists()


def test_nvars_limit_enforced(capsys):
    code, _, err = run(capsys, "schur", "expand", "--outer", "1", "--nvars", "9")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--dim", "100"),
        ("search", "--dim", "12"),
        ("search", "--dim", "0"),
        ("search", "--dim", "3"),
        ("deriv", "sweep", "--max-boxes", "13"),
        ("deriv", "sweep", "--max-boxes", "0"),
        ("deriv", "sweep", "--max-nvars", "9"),
        ("deriv", "sweep", "--max-nvars", "1"),
        ("inject", "verify", "--max-labels", "9"),
        ("inject", "verify", "--max-labels", "0"),
        ("inject", "verify", "--seeds", "0"),
        ("inject", "verify", "--seeds", "33"),
        ("schur", "eval", "--outer", "1", "--point", ""),
        ("schur", "eval", "--outer", "1", "--point", "1,2,3,4,5,6,7,8,9"),
        ("inject", "verify", "--rho", "5,4", "--lambda", "4,4", "--nlabels", "12",
         "--d", "1", "--e", "2"),
        ("schur", "expand", "--outer", "40", "--nvars", "8"),
        ("inject", "run", "--rho", "2,1", "--lambda", "1,1", "--nlabels", "0",
         "--d", "0", "--e", "1"),
        ("deriv", "check", "--rho", "7,6", "--lambda", "1", "--nvars", "2"),
        ("inject", "verify", "--rho", "6,6", "--lambda", "6,5", "--nlabels", "8",
         "--d", "0", "--e", "1"),
        ("inject", "run", "--rho", "6,6", "--lambda", "6,5", "--nlabels", "8",
         "--d", "0", "--e", "1"),
        ("inject", "run", "--rho", "5,4", "--lambda", "4,4", "--nlabels", "5",
         "--d", "1", "--e", "2", "--index", "1000000000"),
        ("inject", "run", "--rho", "5,4", "--lambda", "4,4", "--nlabels", "5",
         "--d", "1", "--e", "2", "--index", "-1"),
        ("inject", "verify", "--rho", "3,1", "--lambda", "2,1", "--nlabels", "3",
         "--d", "1", "--e", "1"),
        ("inject", "run", "--rho", "3,1", "--lambda", "2,2", "--nlabels", "3",
         "--d", "0", "--e", "1"),
    ],
)
def test_size_limits_enforced(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_pair_bound_admits_the_counterexample(capsys):
    # (5,4)/(4,4) with 5 labels, d=1, e=2 has 735,000 input pairs; the last is index 734999.
    code, out, _ = run(
        capsys,
        "inject", "run", "--rho", "5,4", "--lambda", "4,4", "--nlabels", "5",
        "--d", "1", "--e", "2", "--index", "734999", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["input"]["t"]["outer"] == [4, 4]
    code, _, err = run(
        capsys,
        "inject", "verify", "--rho", "6,6", "--lambda", "6,5", "--nlabels", "8",
        "--d", "0", "--e", "1",
    )
    assert "48796121088 input pairs" in err


def test_partition_size_limit_names_the_option(capsys):
    code, _, err = run(capsys, "deriv", "check", "--rho", "1", "--lambda", "7,6", "--nvars", "2")
    assert code == 2
    assert "--lambda must have at most 12 boxes" in err


def test_jobs_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--dim", "2", "--jobs", "7"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
