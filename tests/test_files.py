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
    def test_triple_round_trip(self):
        z2 = rgwa.cyclic_trivial(2)
        triple = rgwa.enumerate_derived_actions(z2, z2)[0]
        back = files.triple_from_json(files.triple_to_json(triple), z2, z2)
        assert back == triple

    def test_triple_name_mismatch(self):
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        triple = rgwa.enumerate_derived_actions(z2, z2)[0]
        with pytest.raises(rgwa.InputError):
            files.triple_from_json(files.triple_to_json(triple), z2, z3)

    @pytest.mark.parametrize("entry", [True, "1"])
    def test_triple_entries_must_be_integers(self, entry):
        z2 = rgwa.cyclic_trivial(2)
        doc = files.triple_to_json(rgwa.enumerate_derived_actions(z2, z2)[0])
        doc["pow"][1][1] = entry
        with pytest.raises(rgwa.InputError):
            files.triple_from_json(doc, z2, z2)

    def test_pentaction_round_trip(self, corpus):
        for obj in corpus[:4]:
            for pent in rgwa.enumerate_pentactions(obj):
                back = files.pentaction_from_json(files.pentaction_to_json(pent), obj)
                assert back == pent

    def test_pentaction_document_keys(self):
        data = files.pentaction_to_json(rgwa.zero_pentaction(rgwa.cyclic_trivial(2)))
        assert set(data) == {"object", "dotL", "dotR", "up", "upL", "pow"}


class TestMalformedDocuments:
    """The triple, pentaction and extension loaders refuse a document that is
    not a JSON object, or whose table, slot or map is not a list, with
    InputError."""

    @pytest.fixture()
    def load(self, tmp_path):
        z2 = rgwa.cyclic_trivial(2)
        ext = rgwa.direct_sum_extension(z2, z2)
        for key in ("A", "E", "B"):
            files.save_object(getattr(ext, key), tmp_path / f"{key}.json")

        def extension(doc):
            (tmp_path / "ext.json").write_text(json.dumps(doc), encoding="utf-8")
            return files.load_split_extension(tmp_path / "ext.json")

        loaders = {
            "triple": (lambda doc: files.triple_from_json(doc, z2, z2),
                       files.triple_to_json(rgwa.enumerate_derived_actions(z2, z2)[0])),
            "pentaction": (lambda doc: files.pentaction_from_json(doc, z2),
                           files.pentaction_to_json(rgwa.zero_pentaction(z2))),
            "extension": (extension, files.extension_to_json(
                {"A": "A.json", "E": "E.json", "B": "B.json"}, ext)),
        }

        def load(kind, change):
            loader, doc = loaders[kind]
            loader(doc)  # the unchanged document loads
            return loader(change(doc))

        return load

    @pytest.mark.parametrize("kind,change", [
        ("triple", lambda doc: [doc]),
        ("triple", lambda doc: {**doc, "dot": 5}),
        ("pentaction", lambda doc: list(doc.values())),
        ("pentaction", lambda doc: {**doc, "dotL": 5}),
        ("pentaction", lambda doc: {**doc, "pow": None}),
        ("extension", lambda doc: [doc]),
        ("extension", lambda doc: {**doc, "i": 5}),
    ], ids=["triple-list", "triple-dot-int", "pentaction-list", "pentaction-dotL-int",
            "pentaction-pow-null", "extension-list", "extension-map-int"])
    def test_raises_input_error(self, load, kind, change):
        with pytest.raises(rgwa.InputError):
            load(kind, change)

    @pytest.mark.parametrize("key", ["A", "E", "B"])
    def test_object_path_that_is_not_a_string(self, load, key):
        with pytest.raises(rgwa.InputError, match=f"object path {key} must be a string"):
            load("extension", lambda doc: {**doc, key: 5})

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000, b"1" * 5_000,
    ], ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
    def test_unreadable_extension_names_the_path(self, tmp_path, content):
        path = tmp_path / "ext.json"
        path.write_bytes(content)
        with pytest.raises(rgwa.InputError, match=f"^{path}: unreadable JSON: "):
            files.load_split_extension(path)


class TestExtensionFormat:
    def test_round_trip_with_relative_paths(self, tmp_path):
        z2, z3 = rgwa.cyclic_trivial(2), rgwa.cyclic_trivial(3)
        ext = rgwa.direct_sum_extension(z2, z3)
        files.save_object(ext.A, tmp_path / "a.json")
        files.save_object(ext.E, tmp_path / "e.json")
        files.save_object(ext.B, tmp_path / "b.json")
        doc = files.extension_to_json({"A": "a.json", "E": "e.json", "B": "b.json"}, ext)
        (tmp_path / "ext.json").write_text(json.dumps(doc), encoding="utf-8")
        loaded = files.load_split_extension(tmp_path / "ext.json")
        assert rgwa.check_split_extension(loaded).passed
        assert loaded.i.map == ext.i.map
        assert rgwa.action_from_split_extension(loaded).report.passed


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
