"""JSON formats: round trips, error positions, corpus emission."""

import json
from pathlib import Path

import pytest

import rgwa
from rgwa import files


class TestObjectFormat:
    def test_round_trip_in_memory(self, corpus):
        for obj in corpus:
            data = files.object_to_json(obj)
            back = files.object_from_json(data)
            assert back.table_equal(obj) and back.name == obj.name

    def test_round_trip_on_disk(self, tmp_path):
        obj = rgwa.cyclic_trivial(5)
        path = tmp_path / "z5.json"
        files.save_object(obj, path)
        assert files.load_object(path).table_equal(obj)

    def test_document_keys(self):
        data = files.object_to_json(rgwa.cyclic_trivial(2))
        assert set(data) == {"name", "order", "add", "act"}

    def test_missing_keys(self):
        with pytest.raises(rgwa.InputError):
            files.object_from_json({"name": "x", "order": 2, "add": [[0]]})

    def test_bad_types(self):
        with pytest.raises(rgwa.InputError):
            files.object_from_json({"name": 3, "order": 1, "add": [[0]], "act": [[0]]})
        with pytest.raises(rgwa.InputError):
            files.object_from_json({"name": "x", "order": 0, "add": [], "act": []})
        with pytest.raises(rgwa.InputError):
            files.object_from_json({"name": "x", "order": True, "add": [[0]], "act": [[0]]})

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "order": }', encoding="utf-8")
        with pytest.raises(rgwa.InputError) as exc:
            files.load_object(path)
        assert "line 1" in str(exc.value) and "column" in str(exc.value)

    def test_invalid_axioms_surface_the_report(self, tmp_path):
        path = tmp_path / "s3.json"
        add, act = rgwa.s3_conjugation_tables()
        doc = {"name": "s3conj", "order": 6,
               "add": [list(r) for r in add], "act": [list(r) for r in act]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(rgwa.ValidationError) as exc:
            files.load_object(path)
        assert "reduced.central" in exc.value.report.conditions()


class TestTripleAndPentactionFormats:
    def test_pentaction_document_keys(self):
        data = files.pentaction_to_json(rgwa.zero_pentaction(rgwa.cyclic_trivial(2)))
        assert set(data) == {"object", "dotL", "dotR", "up", "upL", "pow"}


class TestMalformedDocuments:
    """The object loader refuses a file that is not JSON, naming its path."""

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000, b"1" * 5_000,
    ], ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
    def test_unreadable_object_names_the_path(self, tmp_path, content):
        path = tmp_path / "obj.json"
        path.write_bytes(content)
        with pytest.raises(rgwa.InputError, match=f"^{path}: unreadable JSON: "):
            files.load_object(path)


class TestCorpusEmission:
    def test_emits_eleven_files(self, tmp_path):
        written = files.emit_corpus(tmp_path / "corpus")
        assert len(written) == 11
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert names == sorted(
            [f"z{n}.json" for n in range(1, 9)]
            + ["klein4.json", "z2xz4.json", "s3_conjugation.json"]
        )

    def test_emission_is_byte_stable(self, tmp_path):
        first = files.emit_corpus(tmp_path / "one")
        second = files.emit_corpus(tmp_path / "two")
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_every_positive_file_validates(self, tmp_path):
        for path in files.emit_corpus(tmp_path / "corpus"):
            if path.endswith("s3_conjugation.json"):
                with pytest.raises(rgwa.ValidationError):
                    files.load_object(path)
            else:
                assert files.load_object(path).reduced

    def test_round_trip_equality(self, tmp_path, corpus):
        files.emit_corpus(tmp_path / "corpus")
        for obj in corpus:
            loaded = files.load_object(tmp_path / "corpus" / f"{obj.name}.json")
            assert loaded.table_equal(obj)
