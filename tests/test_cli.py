"""Problem-file parsing, report generation, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from torusgerbe.cli import (
    BadDimensions,
    MalformedRational,
    NonIncreasingIndices,
    ProblemError,
    UnknownCommand,
    main,
    parse_problem,
    problem_document,
    run_command,
)
from torusgerbe.torus import NotAComplexStructure
from torusgerbe.gerbe import TypeConditionFailed

from helpers import count_contractions

FIXTURE_DOC = {
    "n": 2,
    "J": [
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "1", "0"],
    ],
    "E": [{"indices": [1, 2, 3], "coeff": "2"}],
    "B": [{"indices": [1, 2], "coeff": "1/2"}],
    "vectors": {
        "u": ["1/2", "0", "0", "0"],
        "v": ["0", "1/2", "0", "0"],
        "z": ["0", "0", "1/2", "0"],
        "bad": ["1/3", "0", "0", "0"],
    },
    "case": "integral",
}


def fixture_text(**overrides) -> str:
    doc = json.loads(json.dumps(FIXTURE_DOC))
    doc.update(overrides)
    return json.dumps(doc)


@pytest.fixture()
def problem_path(tmp_path):
    p = tmp_path / "problem.json"
    p.write_text(fixture_text())
    return str(p)


class TestParseProblem:
    def test_fixture_parses(self):
        p = parse_problem(fixture_text())
        assert p.n == 2
        assert p.gerbe.e.coeff(0, 1, 2) == 2
        assert p.vector("u") is not None
        assert p.case is not None

    def test_round_trip(self):
        p = parse_problem(fixture_text())
        assert parse_problem(json.dumps(problem_document(p))) == p

    def test_round_trip_no_optionals(self):
        doc = {k: v for k, v in FIXTURE_DOC.items() if k in ("n", "J", "E")}
        p = parse_problem(json.dumps(doc))
        assert parse_problem(json.dumps(problem_document(p))) == p

    def test_identity_j_rejected(self):
        bad = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        with pytest.raises(NotAComplexStructure):
            parse_problem(fixture_text(J=bad))

    def test_non_increasing_indices(self):
        with pytest.raises(NonIncreasingIndices):
            parse_problem(fixture_text(E=[{"indices": [2, 1, 3], "coeff": "1"}]))

    def test_malformed_rational(self):
        with pytest.raises(MalformedRational):
            parse_problem(fixture_text(E=[{"indices": [1, 2, 3], "coeff": "0.5"}]))

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            parse_problem(fixture_text(vectors={"u": ["1", "0"]}))

    def test_type_condition_failure_surfaces(self):
        doc = {
            "n": 3,
            "J": [
                ["0", "0", "0", "-1", "0", "0"],
                ["0", "0", "0", "0", "-1", "0"],
                ["0", "0", "0", "0", "0", "-1"],
                ["1", "0", "0", "0", "0", "0"],
                ["0", "1", "0", "0", "0", "0"],
                ["0", "0", "1", "0", "0", "0"],
            ],
            "E": [{"indices": [1, 2, 3], "coeff": "1"}],
        }
        with pytest.raises(TypeConditionFailed):
            parse_problem(json.dumps(doc))

    def test_non_integral_e_coefficient(self, tmp_path, capsys):
        text = fixture_text(E=[{"indices": [1, 2, 3], "coeff": "1/2"}])
        with pytest.raises(ProblemError) as info:
            parse_problem(text)
        assert info.value.field == "E"
        bad = tmp_path / "half.json"
        bad.write_text(text)
        assert main(["check-type", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["result"]["error"] == "ProblemError"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"n": True, "J": [["0", "-1"], ["1", "0"]], "E": [], "B": [], "vectors": {}}, "n"),
            ({"E": [{"indices": [True, 2, 3], "coeff": "1"}]}, "E[0].indices"),
            ({"B": [{"indices": [True, 2], "coeff": "1"}]}, "B[0].indices"),
            ({"E": [{"indices": [1, 2, 3], "coeff": True}]}, "E[0].coeff"),
            ({"B": [{"indices": [1, 2], "coeff": False}]}, "B[0].coeff"),
        ],
        ids=["n", "E-indices", "B-indices", "E-coeff", "B-coeff"],
    )
    def test_booleans_are_not_integers(self, overrides, field, tmp_path, capsys):
        text = fixture_text(**overrides)
        with pytest.raises(ProblemError) as info:
            parse_problem(text)
        assert info.value.field == field
        bad = tmp_path / "bool.json"
        bad.write_text(text)
        assert main(["check-torus", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["result"]["message"].startswith(field + ":")

    def test_invalid_json(self):
        with pytest.raises(ProblemError):
            parse_problem("{not json")


class TestRunCommand:
    def test_unknown_command(self):
        with pytest.raises(UnknownCommand):
            run_command("nope", parse_problem(fixture_text()), {})

    def test_membership(self):
        p = parse_problem(fixture_text())
        report, status = run_command("membership", p, {"w": "bad"})
        assert status == 0
        assert report["result"]["fixes_gerbe"] is False
        assert report["result"]["integral"] is False

    def test_membership_contracts_once_per_run(self, monkeypatch):
        # fixes_gerbe, both case memberships and the printed contraction
        # share one contraction of E by w
        calls = count_contractions(monkeypatch)
        for runs in (1, 2):
            report, status = run_command("membership", parse_problem(fixture_text()), {"w": "u"})
            assert status == 0 and report["result"]["integral"] is True
            assert len(calls) == runs

    def test_translate(self):
        p = parse_problem(fixture_text())
        report, status = run_command("translate", p, {"w": "1,0,0,0"})
        assert status == 0
        assert report["result"]["isomorphic_to_original"] is True

    def test_tau_verify_pass_and_fail(self):
        p = parse_problem(fixture_text())
        _, status = run_command("tau-verify", p, {"w": "u", "samples": 5, "seed": 0})
        assert status == 0
        report, status = run_command(
            "tau-verify", p, {"w": "bad", "samples": 5, "seed": 0}
        )
        assert status == 1
        assert report["result"]["first_failure"] is not None

    def test_xi(self):
        p = parse_problem(fixture_text())
        report, status = run_command("xi", p, {"w1": "u", "w2": "v"})
        assert status == 0
        assert report["result"]["character"]["trivial"] is False
        assert report["result"]["character"]["exponents"][2]["re"] == "-3/16"

    def test_obstruction1(self):
        p = parse_problem(fixture_text())
        report, status = run_command("obstruction1", p, {"generators": "u,v"})
        assert status == 1
        assert report["result"]["vanishes"] is False
        assert report["result"]["value_at_certificate"] == {"exponent_mod1": "1/2"}

    def test_obstruction2(self):
        p = parse_problem(fixture_text(E=[{"indices": [1, 2, 3], "coeff": "4"}]))
        report, status = run_command("obstruction2", p, {"generators": "u,v,z"})
        assert status == 1
        values = report["result"]["values_at_certificate"]
        assert values["closed_form"] == {"exponent_mod1": "1/2"}
        assert values["skew"] == {"exponent_mod1": "1/2"}

    def test_theta_table(self):
        p = parse_problem(fixture_text())
        report, status = run_command("theta-table", p, {"generators": "u,v"})
        assert status == 0
        assert len(report["result"]["products"]) == 4

    def test_gerbal_class(self):
        p = parse_problem(fixture_text(E=[{"indices": [1, 2, 3], "coeff": "4"}]))
        report, status = run_command(
            "gerbal-class", p, {"w1": "u", "w2": "v", "w3": "z"}
        )
        assert status == 1
        assert report["result"]["value"] == {"exponent_mod1": "1/4"}

    def test_gerbal_class_first_obstruction_blocks(self):
        p = parse_problem(fixture_text())
        report, status = run_command(
            "gerbal-class", p, {"w1": "u", "w2": "v", "w3": "z"}
        )
        assert status == 1
        assert report["result"]["error"] == "FirstObstructionNonzero"

    def test_unknown_vector_name(self):
        p = parse_problem(fixture_text())
        with pytest.raises(ProblemError):
            run_command("membership", p, {"w": "nosuch"})

    def test_case_required_when_absent(self):
        p = parse_problem(fixture_text(case=None))
        with pytest.raises(ProblemError):
            run_command("xi", p, {"w1": "u", "w2": "v"})


class TestExamples:
    def test_k_group(self):
        report, status = run_command("example", None, {"name": "k-group"})
        assert status == 0
        assert report["result"]["membership_matches_expected"] is True
        assert report["result"]["half_lattice_in_doubled_symmetries"] is True

    def test_first_obstruction(self):
        report, status = run_command("example", None, {"name": "first-obstruction"})
        assert status == 1
        cert = report["result"]["certificate"]
        assert cert == [
            ["1/2", "0", "0", "0"],
            ["0", "1/2", "0", "0"],
            ["0", "0", "1", "0"],
        ]
        assert report["result"]["value_at_certificate"] == {"exponent_mod1": "1/2"}

    def test_second_obstruction(self):
        report, status = run_command("example", None, {"name": "second-obstruction"})
        assert status == 1
        assert report["result"]["first"]["vanishes"] is True
        assert report["result"]["second"]["vanishes"] is False
        assert report["result"]["second"]["values_at_certificate"]["closed_form"] == {
            "exponent_mod1": "1/2"
        }

    def test_bad_name(self):
        with pytest.raises(ProblemError):
            run_command("example", None, {"name": "nope"})


class TestMainEntry:
    def test_exit_codes(self, problem_path, capsys):
        assert main(["tau-verify", problem_path, "--w", "u"]) == 0
        assert main(["tau-verify", problem_path, "--w", "bad"]) == 1
        capsys.readouterr()

    def test_input_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(fixture_text(E=[{"indices": [2, 1, 3], "coeff": "1"}]))
        assert main(["check-torus", str(bad)]) == 2
        out = capsys.readouterr()
        assert "NonIncreasingIndices" in out.out

    def test_missing_file_exit_2(self, capsys):
        assert main(["check-torus", "/nonexistent/x.json"]) == 2
        capsys.readouterr()

    def test_json_to_stdout_summary_to_stderr(self, problem_path, capsys):
        status = main(["membership", problem_path, "--w", "u"])
        out = capsys.readouterr()
        assert status == 0
        json.loads(out.out)  # stdout is pure JSON
        assert "membership" in out.err

    def test_deterministic_output(self, problem_path, capsys):
        main(["obstruction1", problem_path, "--generators", "u,v"])
        first = capsys.readouterr().out
        main(["obstruction1", problem_path, "--generators", "u,v"])
        second = capsys.readouterr().out
        assert first == second

    def test_directory_path_exit_2(self, tmp_path, capsys):
        assert main(["check-torus", str(tmp_path)]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["result"]["error"] == "IsADirectoryError"

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"n": 2, "case": "int\xe9gral"}')  # Latin-1, not UTF-8
        assert main(["check-torus", str(bad)]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["result"]["error"] == "UnicodeDecodeError"

    @pytest.mark.parametrize("command", ["obstruction1", "obstruction2", "theta-table"])
    @pytest.mark.parametrize("raw", ["", ",", ",,"])
    def test_generator_list_naming_no_vector_exit_2(self, command, raw, problem_path, capsys):
        assert main([command, problem_path, "--generators", raw]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {
            "error": "ProblemError",
            "message": "--generators is required for this command",
        }

    def test_negative_samples_exit_2(self, problem_path, capsys):
        assert main(["tau-verify", problem_path, "--w", "u", "--samples", "-1"]) == 2
        out = capsys.readouterr()
        assert "--samples" in json.loads(out.out)["result"]["message"]

    def test_zero_samples_accepted(self, problem_path, capsys):
        assert main(["tau-verify", problem_path, "--w", "u", "--samples", "0"]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["result"]["pairs_checked"] == 16

    def test_long_numeral_exit_2_at_its_field(self, tmp_path, capsys):
        # beyond Python's int-string digit limit (4,300 by default)
        doc = json.loads(fixture_text())
        doc["J"][0][1] = "1" + "0" * 5000
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc))
        assert main(["check-torus", str(bad)]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["error"] == "MalformedRational"
        assert result["message"].startswith("J[0][1]: ")

    def test_n_too_large_to_print_exit_2_at_n(self, tmp_path, capsys):
        # 2n has more digits than Python's int-string limit allows to print
        bad = tmp_path / "huge-n.json"
        bad.write_text(fixture_text().replace('"n": 2', '"n": ' + "9" * 4300, 1))
        assert main(["check-torus", str(bad)]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["error"] == "BadDimensions"
        assert result["message"].startswith("n: ")

    @pytest.mark.parametrize("command", ["membership", "translate"])
    def test_over_long_result_exit_2_at_result(self, command, tmp_path, capsys):
        # every input numeral is under the int-string digit limit (4,300 by
        # default), but the contraction and the translated B are not
        bench_doc = Path(__file__).resolve().parents[1] / "bench" / "cli" / "problem-n2.json"
        doc = json.loads(bench_doc.read_text())
        for item in doc["E"]:
            item["coeff"] = str(7 * 10**300 + 1)
        doc["vectors"]["big"] = [f"{10**4200 + 1}/3", "0", "0", "0"]
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        assert main([command, str(big), "--w", "big"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["error"] == "ProblemError"
        assert result["message"].startswith("result: ")

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        assert main(["check-torus", str(bad)]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["error"] == "ProblemError"
        assert result["message"].startswith("invalid JSON")

    def test_samples_above_cap_exit_2_before_any_pair(
        self, problem_path, capsys, monkeypatch
    ):
        import torusgerbe.trivialization as triv

        def no_pair(*args, **kwargs):
            raise AssertionError("the identity was set up")

        # the cap must stop the command before any context or pair exists
        monkeypatch.setattr(triv.TranslationContext, "create", no_pair)
        monkeypatch.setattr(triv, "trivialization_residual", no_pair)
        monkeypatch.setattr(triv, "_folded_residual", no_pair)
        argv = ["tau-verify", problem_path, "--w", "u", "--samples", str(10**20)]
        assert main(argv) == 2
        assert "--samples" in json.loads(capsys.readouterr().out)["result"]["message"]

    def test_samples_cap_documented(self):
        from torusgerbe.cli import MAX_SAMPLES, build_parser

        sub = build_parser()._subparsers._group_actions[0].choices["tau-verify"]
        assert f"0 to {MAX_SAMPLES}" in " ".join(sub.format_help().split())

    def test_example_runs_without_problem_file(self, capsys):
        assert main(["example", "--name", "k-group"]) == 0
        capsys.readouterr()
