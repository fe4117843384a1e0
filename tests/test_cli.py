"""CLI verbs, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rgwa
from conftest import (
    k4swap_object,
    negation_cyclic,
    negation_product,
    reference_pentactions_document,
    relabeled,
    shear_object,
)
from rgwa import representability
from rgwa.cli import main
from rgwa.files import dumps_canonical, emit_corpus, save_object


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    emit_corpus(path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def usage_error(capsys, argv) -> str:
    """Run a command line that must be refused as a usage error: exit 2,
    nothing on stdout, and on stderr the usage and the error, which is
    returned."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rgwa") and "\nrgwa: error: " in captured.err
    assert "Traceback" not in captured.err
    return captured.err


class TestValidate:
    def test_valid_object_exits_zero(self, capsys, corpus_dir):
        code, out = run(capsys, "validate", corpus_dir / "z3.json")
        assert code == 0
        assert json.loads(out) == {"passed": True, "violations": []}

    def test_reduced_violation_exits_one(self, capsys, corpus_dir):
        code, out = run(capsys, "validate", corpus_dir / "s3_conjugation.json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        conditions = [v["condition"] for v in payload["violations"]]
        assert conditions == ["reduced.central", "reduced.collapse"]

    def test_malformed_json_exits_two_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, out = run(capsys, "validate", bad)
        assert code == 2
        assert "line" in json.loads(out)["error"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, out = run(capsys, "validate", tmp_path / "absent.json")
        assert code == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",
        b"[" * 100_000 + b"]" * 100_000,
        b"1" * 5_000,
    ], ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
    def test_unreadable_json_exits_two_without_a_traceback(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        src = Path(rgwa.__file__).resolve().parent.parent
        for verb in ("validate", "pa"):
            proc = subprocess.run([sys.executable, "-m", "rgwa.cli", verb, str(path)],
                                  capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(src)})
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert json.loads(proc.stdout)["error"].startswith(f"{path}: ")

    @pytest.mark.parametrize("order, rows, budget", [(1_000_000, 1, None), (3, 2, 1)])
    def test_table_shape_is_checked_before_the_budget(
            self, capsys, tmp_path, order, rows, budget):
        path = tmp_path / "shape.json"
        table = [[0] * rows for _ in range(rows)]
        path.write_text(json.dumps({"name": "x", "order": order, "add": table, "act": table}),
                        encoding="utf-8")
        code, out = run(capsys, "validate", *(["--budget", budget] if budget else []), path)
        assert code == 2
        assert json.loads(out) == {"error": f"add table has {rows} rows, expected {order}"}


    @pytest.mark.parametrize("doc", [
        {"name": "z2", "order": True, "add": [[0]], "act": [[0]]},
        {"name": "z2", "order": 2, "add": [[False, True], [True, False]],
         "act": [[0, 0], [1, 1]]},
    ])
    def test_bools_as_numbers_exit_two(self, capsys, tmp_path, doc):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "validate", path)
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("verb", ["validate", "pa"])
    @pytest.mark.parametrize("add", [[5, [1, 0]], 5, [None, [1, 0]]])
    def test_tables_that_are_not_rows_exit_two(self, capsys, tmp_path, verb, add):
        path = tmp_path / "bad.json"
        doc = {"name": "bad", "order": 2, "add": add, "act": [[0, 0], [1, 1]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, verb, path)
        assert code == 2
        assert "not a list" in json.loads(out)["error"]

    def test_budget_refuses_the_axiom_scan(self, capsys, corpus_dir):
        code, out = run(capsys, "validate", "--budget", "511", corpus_dir / "z8.json")
        assert code == 3
        assert "axiom scan of 'z8' visits 512 cells" in json.loads(out)["error"]
        code, out = run(capsys, "validate", "--budget", "512", corpus_dir / "z8.json")
        assert code == 0


class TestCorpus:
    def test_writes_eleven_files(self, capsys, tmp_path):
        code, out = run(capsys, "corpus", tmp_path / "c")
        assert code == 0
        assert len(json.loads(out)["written"]) == 11


class TestEnumerationVerbs:
    def test_pentactions_count(self, capsys, corpus_dir):
        code, out = run(capsys, "pentactions", corpus_dir / "z2.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["pentactions"][0]["pow"] == [0, 0]

    def test_pentactions_budget_exit_three(self, capsys, corpus_dir):
        code, out = run(capsys, "pentactions", corpus_dir / "z3.json", "--budget", "1")
        assert code == 3
        assert "budget" in json.loads(out)["error"]

    def test_budget_flag_before_the_file(self, capsys, corpus_dir):
        code, _ = run(capsys, "pentactions", "--budget", "1", corpus_dir / "z3.json")
        assert code == 3

    @pytest.mark.parametrize("flag", [["--budget=1"], ["--bud", "1"]])
    def test_joined_and_abbreviated_flags(self, capsys, corpus_dir, flag):
        code, out = run(capsys, "pentactions", *flag, corpus_dir / "z3.json")
        assert code == 3
        assert "budget is 1" in json.loads(out)["error"]

    def test_flags_after_the_path_whatever_posixly_correct_says(self, corpus_dir):
        # GNU-style parsers stop at the first word when POSIXLY_CORRECT is
        # set; this command line must read the same in every environment
        src = Path(rgwa.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "rgwa.cli", "pentactions", str(corpus_dir / "z3.json"),
             "--pretty", "--bud", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "POSIXLY_CORRECT": "1"})
        assert proc.returncode == 3, proc.stderr
        assert "budget is 1" in json.loads(proc.stdout)["error"]
        assert proc.stdout.count("\n") > 1

    def test_oracle_equivalence(self, capsys, corpus_dir):
        code, out = run(capsys, "oracle", corpus_dir / "z3.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] and payload["count_pruned"] == 6

    def test_oracle_refuses_large_orders(self, capsys, corpus_dir):
        code, _ = run(capsys, "oracle", corpus_dir / "z4.json")
        assert code == 2


_PENTACTION_BASES = {
    **{obj.name: (lambda obj=obj: obj) for obj in rgwa.standard_corpus()},
    "z4neg": lambda: negation_cyclic(4),
    "k4swap": k4swap_object,
    "shear16": shear_object,
    "neg2x8": lambda: negation_product(2, 8),
    "neg4x4": lambda: negation_product(4, 4),
    "neg8x2": lambda: negation_product(8, 2),
}


def _uniqueness_over_budget():
    z2, z4 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(4)
    triple = rgwa.enumerate_derived_actions(z2, z4)[0]
    rgwa.verify_uniqueness(z2, z4, triple, rgwa.represent(z2, z4, triple), budget=3)


_Z2, _Z3, _Z4 = (rgwa.cyclic_trivial(n) for n in (2, 3, 4))
_KLEIN4 = rgwa.direct_sum(_Z2, _Z2, name="klein4")

# (refusal, its whole message) per budget stage; None is `rgwa validate`
_REFUSALS = {
    "validate": (None, "axiom scan of 'z3' visits 27 cells (order^3), budget is 26"),
    "pentaction-walk": (
        lambda: rgwa.enumerate_pentactions(_Z4, budget=3),
        "pentaction enumeration over 'z4' needs at least 4 candidate visits "
        "(refused before the additive-bijection search), budget is 3"),
    "pentaction-product": (
        lambda: rgwa.enumerate_pentactions(_Z3, budget=5),
        "pentaction enumeration over 'z3' needs 6 candidate visits, budget is 5"),
    "derived-walk": (
        lambda: rgwa.enumerate_derived_actions(_Z4, _Z2, budget=3),
        "derived-action enumeration for 'z2' on 'z4' needs at least 4 candidate visits "
        "(refused before the additive-bijection search), budget is 3"),
    "derived-family": (
        lambda: rgwa.enumerate_derived_actions(_KLEIN4, _KLEIN4, budget=35),
        "derived-action enumeration for 'klein4' on 'klein4' needs at least 36 candidate "
        "visits (refused before the family search), budget is 35"),
    "derived-pow": (
        lambda: rgwa.enumerate_derived_actions(negation_cyclic(8), _KLEIN4, budget=287),
        "derived-action enumeration for 'klein4' on 'z8neg' needs 288 candidate visits, "
        "budget is 287"),
    "pa-object": (
        lambda: rgwa.build_pa_object(_Z3, budget=35).object,
        "assembling the operation tables of PA(z3) needs 36 cells, budget is 35"),
    "uniqueness": (
        _uniqueness_over_budget,
        "uniqueness lookup for 4 columns needs 4 lookups, budget is 3"),
    "represent-derived": (
        lambda: rgwa.verify_representability(_Z2, 4, 2, [_KLEIN4]),
        "representability check for 'z2': derived-action enumeration for 'klein4' on 'z2' "
        "needs 3 candidate visits, budget is 2"),
    "represent-uniqueness": (
        lambda: rgwa.verify_representability(_Z2, 4, 3, [_Z4]),
        "representability check for 'z2', B='z4', triple 0: uniqueness lookup for 4 "
        "columns needs 4 lookups, budget is 3"),
}


@pytest.mark.parametrize("refuse, message", _REFUSALS.values(), ids=_REFUSALS)
def test_every_budget_refusal_names_its_stage_count_and_budget(capsys, tmp_path, refuse,
                                                               message):
    # one form for every stage: "<stage> needs <count> <unit>, budget is <budget>"
    if refuse is None:
        save_object(_Z3, tmp_path / "z3.json")
        code, out = run(capsys, "validate", "--budget", "26", tmp_path / "z3.json")
        assert (code, out) == (3, dumps_canonical({"error": message}))
        return
    with pytest.raises(rgwa.BudgetExceededError) as refusal:
        refuse()
    assert str(refusal.value) == message


def assert_same_text(out: str, expected: str) -> None:
    # names the first difference; pytest's own diff of two long documents
    # can take minutes
    if out != expected:
        at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
                  min(len(out), len(expected)))
        lo = max(0, at - 30)
        pytest.fail(f"documents differ at character {at} (lengths {len(out)} and "
                    f"{len(expected)}): {out[lo:at + 30]!r} != {expected[lo:at + 30]!r}")


class TestPentactionsDocument:
    """`rgwa pentactions` writes its document from the Maps x W factors; it
    must equal the entry-by-entry dict path byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(_PENTACTION_BASES))
    def test_matches_the_dict_path(self, capsys, tmp_path, name, seed):
        obj = _PENTACTION_BASES[name]()
        if seed:
            obj = relabeled(obj, seed)
        path, copy = tmp_path / "obj.json", tmp_path / "copy.json"
        save_object(obj, path)
        for pretty in (False, True):
            code, out = run(capsys, "pentactions", path, "--out", copy,
                            *(["--pretty"] if pretty else []))
            assert code == 0
            assert_same_text(out, reference_pentactions_document(obj, pretty=pretty))
            assert_same_text(copy.read_text(encoding="utf-8"), out)

    def test_equal_tables_keep_their_own_names(self, capsys, tmp_path):
        # the factor caches are keyed by name as well as tables
        for name in ("alias-first", "alias-second", "alias-first"):
            obj = negation_cyclic(4, name)
            path = tmp_path / f"{name}.json"
            save_object(obj, path)
            code, out = run(capsys, "pentactions", path)
            assert code == 0
            assert_same_text(out, reference_pentactions_document(obj))
            doc = json.loads(out)
            assert {doc["object"]} | {p["object"] for p in doc["pentactions"]} == {name}

    def test_budget_refusal_is_unchanged(self, capsys, tmp_path):
        obj = negation_product(4, 4)
        path = tmp_path / "neg4x4.json"
        save_object(obj, path)
        code, out = run(capsys, "pentactions", "--budget", "1000", path)
        assert code == 3
        with pytest.raises(rgwa.BudgetExceededError) as refusal:
            rgwa.enumerate_pentactions(obj, budget=1000)
        assert out == dumps_canonical({"error": str(refusal.value)})
        assert out == ('{"error":"pentaction enumeration over \'neg4x4\' needs 24576 '
                       'candidate visits, budget is 1000"}\n')

    def test_non_reduced_input_reports_the_reduced_violations(self, capsys, corpus_dir):
        code, out = run(capsys, "pentactions", corpus_dir / "s3_conjugation.json")
        assert code == 1
        assert out == ('{"passed":false,"violations":['
                       '{"condition":"reduced.central","witness":[1,1,2]},'
                       '{"condition":"reduced.collapse","witness":[1,1,2]}]}\n')

    def test_builds_no_pentaction(self, capsys, tmp_path, monkeypatch):
        built = []
        init = rgwa.Pentaction.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(rgwa.Pentaction, "__init__", counting_init)
        # a name of its own, so no cached enumeration can hide a construction
        neg4x4 = negation_product(4, 4)
        obj = rgwa.make_object("neg4x4-unenumerated", 16, neg4x4.add, neg4x4.act)
        path = tmp_path / "neg4x4.json"
        save_object(obj, path)
        code, out = run(capsys, "pentactions", path)
        assert code == 0 and json.loads(out)["count"] == 1024
        assert built == []
        rgwa.zero_pentaction(obj)  # the patched constructor does see constructions
        assert len(built) == 1


class TestStructureVerbs:
    def test_pa_on_the_zero_object(self, capsys, corpus_dir):
        code, out = run(capsys, "pa", corpus_dir / "z1.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pa_order"] == 1
        assert payload["pa_rgwa"]["passed"] and payload["pa_action"]["passed"]

    def test_pa_diagnoses_z2(self, capsys, corpus_dir):
        code, out = run(capsys, "pa", corpus_dir / "z2.json")
        assert code == 1
        payload = json.loads(out)
        assert payload["pa_rgwa"]["passed"] is True
        assert payload["pa_action"]["violations"][0]["condition"] == "a9"

    def test_pa_on_neg4x4_reports_the_pinned_results(self, capsys, tmp_path):
        # PA(neg4x4) has m = 1,024 elements; the reports are those of the
        # m x m tables scanned by check_axioms and of the 22 derived-action
        # conditions scanned by check_derived_action with B = PA(neg4x4)
        path = tmp_path / "neg4x4.json"
        save_object(negation_product(4, 4), path)
        code, out = run(capsys, "pa", path)
        assert code == 1
        assert json.loads(out) == {
            "pa_order": 1024,
            "pa_rgwa": {"passed": False, "violations": [
                {"condition": "reduced.central", "witness": [32, 1, 128]}]},
            "pa_action": {"passed": False, "violations": [
                {"condition": "a9", "witness": [8, 1, 4]},
                {"condition": "a10", "witness": [8, 4, 32]}]},
        }

    def test_pa_builds_no_pentaction_and_no_table(self, capsys, tmp_path, monkeypatch):
        # `rgwa pa` reads only the factor tables of PA(A); a name of its own,
        # so that no cached enumeration hides a construction
        built = []
        init = rgwa.Pentaction.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def no_assembly(f):
            raise AssertionError("the m x m tables were assembled")

        monkeypatch.setattr(rgwa.Pentaction, "__init__", counting_init)
        monkeypatch.setattr(representability, "_assemble", no_assembly)
        neg4x4 = negation_product(4, 4)
        path = tmp_path / "neg4x4.json"
        save_object(rgwa.make_object("neg4x4-unassembled", 16, neg4x4.add, neg4x4.act), path)
        code, out = run(capsys, "pa", path)
        assert code == 1 and json.loads(out)["pa_order"] == 1024
        assert built == []

    def test_analyze_shape(self, capsys, corpus_dir):
        code, out = run(capsys, "analyze", corpus_dir / "z2.json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"perfect", "stabilizer", "weak_stabilizer", "noether_chain"}
        assert payload["noether_chain"] == {"subgroup_orders": [2], "quotient_order": 1}

    def test_noether(self, capsys, corpus_dir):
        code, out = run(capsys, "noether", corpus_dir / "z6.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["subgroup_orders"] == [6]
        assert payload["quotient_order"] == 1

    def test_noether_unsupported_carrier_exits_two(self, capsys, tmp_path, z4neg):
        path = tmp_path / "z4neg.json"
        save_object(z4neg, path)
        code, out = run(capsys, "noether", path)
        assert code == 2

    def test_represent_zero_object(self, capsys, corpus_dir):
        code, out = run(capsys, "represent", corpus_dir / "z1.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["representability"]["all_passed"]
        assert payload["representability"]["pairs_checked"] == 3

    def test_represent_diagnoses_z2(self, capsys, corpus_dir):
        code, out = run(capsys, "represent", corpus_dir / "z2.json")
        assert code == 1
        failures = json.loads(out)["representability"]["failures"]
        assert failures[0]["stage"] == "pa_action"

    def test_represent_nonzero_witness(self, capsys, tmp_path, z4neg):
        path = tmp_path / "z4neg.json"
        save_object(z4neg, path)
        code, out = run(capsys, "represent", path)
        assert code == 0
        assert json.loads(out)["representability"]["all_passed"]


class TestOutputHandling:
    def test_out_writes_an_identical_copy(self, capsys, corpus_dir, tmp_path):
        copy = tmp_path / "report.json"
        code, out = run(capsys, "validate", corpus_dir / "z2.json", "--out", copy)
        assert code == 0
        assert copy.read_text(encoding="utf-8") == out

    def test_pretty_is_stable_json(self, capsys, corpus_dir):
        _, compact = run(capsys, "analyze", corpus_dir / "z2.json")
        _, pretty = run(capsys, "analyze", corpus_dir / "z2.json", "--pretty")
        assert json.loads(compact) == json.loads(pretty)
        assert pretty.count("\n") > compact.count("\n")

    def test_pretty_does_not_carry_over_to_the_next_call(self, capsys, corpus_dir):
        # no option may stick from one call of main to the next
        _, pretty = run(capsys, "validate", corpus_dir / "z2.json", "--pretty")
        _, plain = run(capsys, "validate", corpus_dir / "z2.json")
        assert pretty.count("\n") > 1
        assert plain == '{"passed":true,"violations":[]}\n'

    @pytest.mark.parametrize("verb", ["validate", "pentactions", "analyze", "pa"])
    def test_unwritable_out_is_an_input_error(self, capsys, corpus_dir, tmp_path, verb):
        # --out is written first, so stdout carries only the error document
        code, out = run(capsys, verb, corpus_dir / "z2.json", "--out", tmp_path)
        assert code == 2
        assert "Is a directory" in json.loads(out)["error"]

    @pytest.mark.parametrize("argv, message", [
        (["pentactions", "--budget", "-5"], "must not be negative, got -5"),
        (["represent", "--max-order", "-1"], "must not be negative, got -1"),
        (["validate", "--budget", "abc"], "invalid int value: 'abc'"),
    ])
    def test_counts_that_are_not_non_negative_are_usage_errors(
            self, capsys, corpus_dir, argv, message):
        assert message in usage_error(capsys, [*argv, str(corpus_dir / "z2.json")])

    def test_zero_counts_stay_valid(self, capsys, corpus_dir):
        code, out = run(capsys, "pentactions", "--budget", "0", corpus_dir / "z2.json")
        assert code == 3 and "budget is 0" in json.loads(out)["error"]
        code, out = run(capsys, "represent", "--max-order", "0", corpus_dir / "z1.json")
        assert code == 0
        assert json.loads(out)["representability"]["pairs_checked"] == 0

    def test_repeated_runs_are_byte_identical(self, capsys, corpus_dir):
        _, first = run(capsys, "pentactions", corpus_dir / "z3.json")
        _, second = run(capsys, "pentactions", corpus_dir / "z3.json")
        assert first == second


class TestUsage:
    VERBS = ("validate", "corpus", "pentactions", "pa", "analyze", "noether",
             "represent", "oracle")

    FLAGS = ("--help", "--budget", "--max-order", "--pretty", "--out")

    @pytest.mark.parametrize("argv", [["--help"], ["pentactions", "--help"]])
    def test_help_exits_zero_and_names_every_verb(self, capsys, argv):
        # one help text, the same alone or after a verb
        texts = []
        for line in (["--help"], argv):
            with pytest.raises(SystemExit) as exc:
                main(line)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert all(verb in texts[1] for verb in self.VERBS)
        assert all(flag in texts[1] for flag in self.FLAGS)

    @pytest.mark.parametrize("argv", [["bogus", "x.json"], ["pa"], [],
                                      ["bogus", "x.json", "--help"]])
    def test_unknown_verb_or_missing_path_exits_two(self, capsys, argv):
        usage_error(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["pa", "x.json", "y.json"],
        ["pa", "--bogus", "x.json"],
        ["pa", "x.json", "--budget"],
    ], ids=["extra-word", "unknown-flag", "flag-without-value"])
    def test_stray_words_and_flags_exit_two(self, capsys, argv):
        usage_error(capsys, argv)


def test_the_first_call_imports_nothing(corpus_dir):
    # the command line is parsed without argparse, whose first parse imports
    # locale for its messages, and a first validate imports nothing else
    script = (
        "import contextlib, io, sys\n"
        "from rgwa.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['validate', {str(corpus_dir / 'z3.json')!r}])\n"
        "print(sorted(set(sys.modules) - before), 'argparse' in sys.modules)\n"
    )
    src = Path(rgwa.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"


def test_verbs_do_not_import_numpy_ma(corpus_dir):
    # numpy.ma costs several milliseconds to import, and np.unique without
    # return_inverse imports it; a fresh process must run these verbs without
    script = (
        "import contextlib, io, sys\n"
        "from rgwa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['pa', {str(corpus_dir / 'z4.json')!r}])\n"
        f"    main(['represent', '--max-order', '4', {str(corpus_dir / 'klein4.json')!r}])\n"
        f"    main(['pentactions', {str(corpus_dir / 'z2xz4.json')!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(rgwa.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Bases outside standard_corpus with trivial action: the cyclic orders of
# their summands, and the stdout of `rgwa pa`, as the assembled m x m tables
# give it.
LARGE_PA_BASES = {
    # m = 3,888: 48 map parts x 81 pow tables
    "z3xz3": ((3, 3), (
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,3,3]},'
        '{"condition":"a10","witness":[1,1,972]}]},"pa_order":3888,"pa_rgwa":{"passed":false,'
        '"violations":[{"condition":"reduced.central","witness":[81,1,243]}]}}\n')),
    # m = 86,016: 168 map parts x 512 pow tables
    "z2xz2xz2": ((2, 2, 2), (
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,4,4]},'
        '{"condition":"a10","witness":[1,1,36864]}]},"pa_order":86016,"pa_rgwa":{"passed":false,'
        '"violations":[{"condition":"reduced.central","witness":[512,1,4096]}]}}\n')),
    # m = 196,608: 192 map parts x 1,024 pow tables
    "z2xz2xz4": ((2, 2, 4), (
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,4,8]},'
        '{"condition":"a10","witness":[1,1,98304]}]},"pa_order":196608,"pa_rgwa":{"passed":false,'
        '"violations":[{"condition":"reduced.central","witness":[1024,1,8192]}]}}\n')),
    # m = 12,582,912: 1,536 map parts x 8,192 pow tables
    "z4xz4xz2": ((4, 4, 2), (
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,8,8]},'
        '{"condition":"a10","witness":[1,2,524288]}]},"pa_order":12582912,"pa_rgwa":{"passed":false,'
        '"violations":[{"condition":"reduced.central","witness":[8192,1,524288]}]}}\n')),
}


# Runs the program in its argv and reports its exit code and peak resident
# memory (KiB) on stderr.  The program is started from this small launcher,
# not from pytest, because Linux carries the RSS peak of the process that
# starts a program into that program's ru_maxrss.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss, file=sys.stderr)\n"
)


def save_large_base(name, tmp_path):
    orders = LARGE_PA_BASES[name][0]
    base = rgwa.cyclic_trivial(orders[0])
    for k in orders[1:]:
        base = rgwa.direct_sum(base, rgwa.cyclic_trivial(k), name=name)
    path = tmp_path / f"{name}.json"
    save_object(base, path)
    return path


def test_pa_on_a_large_base_in_a_subprocess(tmp_path):
    # One m x m table of PA(z3xz3) alone would be 15 M cells, and one of
    # PA(z2xz2xz4) 3.9 G.  Each child exits 1 with the pinned output, its
    # peak resident memory stays under 100 MB, and it ends within the
    # timeout.
    src = Path(rgwa.__file__).resolve().parent.parent
    for name, (_, stdout) in LARGE_PA_BASES.items():
        path = save_large_base(name, tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "rgwa.cli", "pa", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60)
        code, maxrss_kib = map(int, proc.stderr.split())
        assert (code, proc.stdout) == (1, stdout), name
        assert maxrss_kib < 100 * 1024, name


def test_pa_builds_no_table_of_map_part_sums(tmp_path):
    # PA(z4xz4xz2) has 1,536 map parts: a |Maps|^2 table of their sums
    # alone would be 2.4 M lookups and 19 MB, which `rgwa pa` never reads.
    # The child reads its own peak resident memory after the verb returns.
    child = (
        "import resource, sys\n"
        "from rgwa.cli import main\n"
        "code = main(['pa', sys.argv[1]])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    path = save_large_base("z4xz4xz2", tmp_path)
    src = Path(rgwa.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", child, str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    maxrss_kib, code, _ = map(int, proc.stderr.split())
    assert code == 1
    assert proc.stdout.startswith(
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,8,8]}')
    assert maxrss_kib < 64 * 1024


def test_represent_on_shear64_in_a_subprocess(tmp_path):
    # Z/8 (+) Z/8 with (x, y)^(x', y') = (x, x'x + y): PA(A) has 8 map parts
    # and Aut(A) 1,536 elements, so the families of each two-generator B
    # walk 8^2 indices into Maps(A), not 1,536^2 up tables
    import hashlib

    path = tmp_path / "shear64.json"
    save_object(shear_object(8), path)
    src = Path(rgwa.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "rgwa.cli", "represent", "--max-order", "8", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "93234015b19e7c07e58d3c4d2af7747f90cd7566a98edad36317c6c79b5c9142")
