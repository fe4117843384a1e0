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
        # the parser is built once and shared, so no option may stick to it
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
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(corpus_dir / "z2.json")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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

    @pytest.mark.parametrize("argv", [["--help"], ["pentactions", "--help"]])
    def test_help_exits_zero_and_names_every_verb(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(verb in out for verb in self.VERBS)

    @pytest.mark.parametrize("argv", [["bogus", "x.json"], ["pa"], []])
    def test_unknown_verb_or_missing_path_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: rgwa" in captured.err


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


def test_pa_on_a_large_base_in_a_subprocess(tmp_path):
    # Z/3 + Z/3 with trivial action, outside standard_corpus: PA(A) has
    # m = 3,888 elements (48 map parts x 81 pow tables), so one m x m table
    # alone would be 15 M cells.  The pinned output is that of the assembled
    # m x m tables; the child's peak resident memory stays under 100 MB.  A
    # small launcher starts the child, because Linux carries the RSS peak of
    # the process that starts a program into that program's ru_maxrss.
    z3 = rgwa.cyclic_trivial(3)
    path = tmp_path / "z3xz3.json"
    save_object(rgwa.direct_sum(z3, z3, name="z3xz3"), path)
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(proc.returncode, usage.ru_maxrss, file=sys.stderr)\n"
    )
    src = Path(rgwa.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "rgwa.cli", "pa", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    code, maxrss_kib = map(int, proc.stderr.split())
    assert code == 1
    assert proc.stdout == (
        '{"pa_action":{"passed":false,"violations":[{"condition":"a9","witness":[1,3,3]},'
        '{"condition":"a10","witness":[1,1,972]}]},"pa_order":3888,"pa_rgwa":{"passed":false,'
        '"violations":[{"condition":"reduced.central","witness":[81,1,243]}]}}\n'
    )
    assert maxrss_kib < 100 * 1024
