import json
import math
from dataclasses import replace

import numpy as np
import pytest

from refh.corpus import (
    Corpus,
    CorpusValidationError,
    DisciplineMap,
    PublicationRecord,
    PublicationWindow,
    QualityProfile,
    UnknownDisciplineError,
    filter_documents,
    ingest_corpus,
    load_discipline_maps,
    load_profiles,
    load_publications,
    write_corpus,
)
from refh.synth import Lognormal, SynthConfig, generate

from conftest import profile, record, write_files

WINDOW = PublicationWindow(2001, 2007)


class TestPublicationWindow:
    def test_contains_is_inclusive(self):
        assert WINDOW.contains(2001) and WINDOW.contains(2007)
        assert not WINDOW.contains(2000) and not WINDOW.contains(2008)

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            PublicationWindow(2007, 2001)

    def test_parse(self):
        assert PublicationWindow.parse("2008:2013") == PublicationWindow(2008, 2013)
        with pytest.raises(ValueError):
            PublicationWindow.parse("2008-2013")

    @pytest.mark.parametrize("start, end, message", [
        (2001.5, 2007, "window start_year must be an integer, got 2001.5"),
        ("2001", "2007", "window start_year must be an integer, got '2001'"),
        (2001, 2007.0, "window end_year must be an integer, got 2007.0"),
        (2007, 2001, "window start 2007 after end 2001"),
    ], ids=["float_start", "strings", "float_end", "reversed"])
    def test_years_must_be_integers(self, start, end, message):
        with pytest.raises(ValueError) as err:
            PublicationWindow(start, end)
        assert str(err.value) == message

    def test_integer_types_are_taken_as_int(self):
        window = PublicationWindow(np.int64(2001), np.int32(2007))
        assert window == WINDOW and str(window) == "2001:2007"
        assert type(window.start_year) is int and type(window.end_year) is int


class TestRecordInvariants:
    def test_citing_year_before_pub_year_rejected(self):
        with pytest.raises(ValueError, match="P9"):
            record("P9", pub_year=2005, citations={2004: 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            record("P9", citations={2005: -1})

    def test_zero_counts_dropped(self):
        r = record("P1", citations={2004: 0, 2005: 2})
        assert r.citations_by_year == {2005: 2}

    def test_empty_affiliations_rejected(self):
        with pytest.raises(ValueError, match="affiliations"):
            record("P1", affiliations=())

    def test_blank_country_stored_as_none(self):
        assert record("P1", country="  ").country is None

    def test_defaults_and_replace_run_the_checks(self):
        r = PublicationRecord(" P1 ", 2003, " GB ", {" Alpha ", ""}, ["Chemistry"])
        assert (r.pub_id, r.country, r.affiliations, r.citations_by_year) == (
            "P1", "GB", frozenset({"Alpha"}), {})
        reordered = replace(r, citations_by_year={2005: 1, 2004: 2})
        assert list(reordered.citations_by_year.items()) == [(2004, 2), (2005, 1)]
        with pytest.raises(ValueError, match="P1: citing year 2002 precedes publication year 2003"):
            replace(r, citations_by_year={2002: 1})

    @pytest.mark.parametrize("build, message", [
        (lambda: PublicationRecord("  ", 2003, "GB", ["Alpha"], ["Chemistry"]),
         "pub_id must be a non-empty string"),
        (lambda: DisciplineMap("chem", frozenset()), "discipline 'chem': empty category set"),
        (lambda: PublicationRecord("P1", "2004", "GB", ["A"], ["c"]),
         "P1: pub_year must be an integer, got '2004'"),
        (lambda: PublicationRecord("P1", 2004.0, "GB", ["A"], ["c"]),
         "P1: pub_year must be an integer, got 2004.0"),
        (lambda: PublicationRecord(" P1 ", "2004", "GB", [], []),
         "P1: pub_year must be an integer, got '2004'"),
        (lambda: PublicationRecord("P1", 2004, 5, ["A"], ["c"]),
         "P1: country must be a string or None, got 5"),
        (lambda: PublicationRecord("P1", 2004, 5, [], ["c"]),
         "P1: affiliations must be non-empty"),
        (lambda: PublicationRecord("P1", 2004, "GB", frozenset({"Alpha", 5}), ["c"]),
         "P1: affiliations must be an iterable of strings"),
        (lambda: PublicationRecord("P1", 2004, 5, ["A"], ["c", None]),
         "P1: categories must be an iterable of strings"),
        (lambda: PublicationRecord("P1", 2004, "GB", 5, []),
         "P1: affiliations must be an iterable of strings"),
        (lambda: PublicationRecord("P1", 2004, "GB", "Alpha", "Chemistry"),
         "P1: affiliations must be an iterable of strings"),
        (lambda: PublicationRecord("P1", 2004, 5, ["Alpha"], "Chemistry"),
         "P1: categories must be an iterable of strings"),
        (lambda: PublicationRecord("P1", "2004", "GB", "Alpha", ["c"]),
         "P1: pub_year must be an integer, got '2004'"),
        (lambda: PublicationRecord("P1", 2004, "GB", ["A"], ["c"], [(2004, 1)]),
         "P1: citations_by_year must be a mapping, got [(2004, 1)]"),
        (lambda: PublicationRecord("P1", 2004, 5, ["A"], ["c"], [(2004, 1)]),
         "P1: country must be a string or None, got 5"),
        (lambda: PublicationRecord("P1", 2004, "GB", ["A"], ["c"], {2005.9: 1.7}),
         "P1: citations_by_year must map integer years to integer counts, got 2005.9: 1.7"),
        (lambda: PublicationRecord("P1", 2004, "GB", ["A"], ["c"], {2005: "3"}),
         "P1: citations_by_year must map integer years to integer counts, got 2005: '3'"),
        (lambda: PublicationRecord("P1", 2004, "GB", ["A"], ["c"], {"2005": -1}),
         "P1: citations_by_year must map integer years to integer counts, got '2005': -1"),
        (lambda: record("P1", 2003, citations={2005: 1, 2001: 1.0}),
         "P1: citations_by_year must map integer years to integer counts, got 2001: 1.0"),
        (lambda: record("P1", 2003, citations={2005: -1, 2001: 1}),
         "P1: negative citation count -1 in year 2005"),
        (lambda: record("P1", 2003, citations={2001: -1}),
         "P1: negative citation count -1 in year 2001"),
        (lambda: record("P1", 2003, citations={2005: 1, 2004: 1, 2002: -1}),
         "P1: negative citation count -1 in year 2002"),
        (lambda: record("P1", 2003, citations={2005: 1, 2001: 1}),
         "P1: citing year 2001 precedes publication year 2003"),
        (lambda: record("P1", 2003, citations={2002: 0}),
         "P1: citing year 2002 precedes publication year 2003"),
    ], ids=["blank_pub_id", "empty_category_set", "string_pub_year", "float_pub_year",
            "pub_year_before_labels", "int_country", "labels_before_country",
            "non_string_label_in_a_frozenset", "label_types_before_country", "labels_not_iterable",
            "string_affiliations", "string_categories_before_country", "pub_year_before_string_labels",
            "citations_not_a_mapping", "country_before_citations", "float_citation",
            "string_count", "string_year_before_negative_count", "float_count_after_ordered",
            "negative_before_early_year", "negative_early_year", "negative_after_unordered",
            "early_year_after_ordered", "early_year_zero_count"])
    def test_constructor_refusals_keep_their_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_integer_types_are_taken_as_int(self):
        r = PublicationRecord("P1", np.int64(2004), "GB", ["A"], ["c"],
                              {np.int64(2005): np.int32(2), 2006: True})
        assert (r.pub_year, r.citations_by_year) == (2004, {2005: 2, 2006: 1})
        assert type(r.pub_year) is int
        assert all(type(v) is int for item in r.citations_by_year.items() for v in item)

    @pytest.mark.parametrize("citations, stored", [
        ({2004: 1, 2006: 2}, [(2004, 1), (2006, 2)]),
        ({2006: 2, 2004: 1}, [(2004, 1), (2006, 2)]),
        ({2003: 0, 2005: 3, 2004: 0}, [(2005, 3)]),
        ({2005: 3, 2004: 0, 2006: 1}, [(2005, 3), (2006, 1)]),
        ({2004: 0, 2005: 0}, []),
        ({2007: 1, 2003: 2, 2005: 4}, [(2003, 2), (2005, 4), (2007, 1)]),
    ], ids=["ascending", "descending", "zeros_out_of_order", "zero_between", "all_zero", "shuffled"])
    def test_citations_are_stored_in_year_order_without_zeros(self, citations, stored):
        assert list(record("P1", 2003, citations=citations).citations_by_year.items()) == stored

    def test_repeated_years_are_summed(self):
        class Pairs(dict):
            """A mapping whose items repeat a year as two equal integer keys."""

            def items(self):
                return [(2005, 1), (2004, 2), (np.int64(2005), 3)]

        r = PublicationRecord("P1", 2003, "GB", ["A"], ["c"], Pairs())
        assert list(r.citations_by_year.items()) == [(2004, 2), (2005, 4)]


class TestLabelSets:
    def test_clean_frozensets_are_kept(self):
        affiliations, categories = frozenset({"Alpha", "Beta"}), frozenset({"Chemistry"})
        r = PublicationRecord("P1", 2003, "GB", affiliations, categories)
        assert r.affiliations is affiliations and r.categories is categories

    class Labels(frozenset):
        pass

    @pytest.mark.parametrize("labels", [
        frozenset({" Alpha", "Beta"}),
        frozenset({"Alpha", "Beta", ""}),
        frozenset({"Alpha", "Beta", "  "}),
        Labels({"Alpha", "Beta"}),
        {"Alpha", "Beta"},
        ["Alpha", " Beta ", "Alpha"],
        ("Alpha", "Beta"),
    ], ids=["padded", "blank", "whitespace", "frozenset_subclass", "set", "list", "tuple"])
    def test_other_label_sets_are_copied_and_normalised(self, labels):
        r = PublicationRecord("P1", 2003, "GB", labels, labels)
        for stored in (r.affiliations, r.categories):
            assert stored is not labels
            assert type(stored) is frozenset and stored == {"Alpha", "Beta"}

    def test_a_label_of_a_str_subclass_is_copied_as_str(self):
        class Label(str):
            pass

        labels = frozenset({Label("Alpha")})
        r = PublicationRecord("P1", 2003, "GB", labels, ["c"])
        assert r.affiliations is not labels and r.affiliations == {"Alpha"}
        assert all(type(label) is str for label in r.affiliations)


class TestDisciplineMap:
    def test_a_string_is_refused_as_a_category_set(self):
        with pytest.raises(ValueError) as err:
            DisciplineMap("d", "abc")
        assert str(err.value) == "discipline 'd': categories must be a collection of labels, not the string 'abc'"


class TestProfileInvariants:
    def test_sum_must_be_100(self):
        with pytest.raises(ValueError, match="sum"):
            profile(bands=(25.0, 25.0, 25.0, 24.0, 0.0))

    def test_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            profile(bands=(101.0, -1.0, 0.0, 0.0, 0.0))

    def test_output_subprofile_all_or_nothing(self):
        with pytest.raises(ValueError, match="output sub-profile"):
            QualityProfile(
                institution="A", discipline="d",
                p4=100.0, p3=0.0, p2=0.0, p1=0.0, pu=0.0,
                staff_fte=1.0, p4_out=50.0,
            )

    def test_staff_fte_positive(self):
        with pytest.raises(ValueError, match="staff_fte"):
            profile(staff_fte=0.0)

    def test_negative_nci_rejected(self):
        with pytest.raises(ValueError, match="nci"):
            profile(nci=-0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"staff_fte": math.inf}, "Alpha/chemistry: staff_fte must be finite, got inf"),
        ({"nci": math.nan}, "Alpha/chemistry: nci must be finite, got nan"),
        ({"nci": math.inf}, "Alpha/chemistry: nci must be finite, got inf"),
    ])
    def test_non_finite_staff_fte_and_nci_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            profile(**kwargs)
        assert str(err.value) == message


class TestCorpusConstruction:
    def test_duplicate_pub_id_rejected(self, chem_map):
        with pytest.raises(CorpusValidationError, match="duplicate pub_id"):
            Corpus(publications=(record("P1"), record("P1")), discipline_maps=(chem_map,))

    def test_duplicate_profile_rejected(self):
        with pytest.raises(CorpusValidationError, match="duplicate profile"):
            Corpus(profiles=(profile(), profile()))

    def test_duplicate_profile_differing_only_in_discipline_case_rejected(self):
        # the same key rule as load_profiles: (institution, normalized discipline)
        with pytest.raises(CorpusValidationError, match="duplicate profile for Alpha/"):
            Corpus(profiles=(profile(discipline="Chemistry"), profile(discipline="chemistry")))

    def test_canonical_order_makes_equal_corpora(self, chem_map):
        a = Corpus(publications=(record("P1"), record("P2")), discipline_maps=(chem_map,))
        b = Corpus(publications=(record("P2"), record("P1")), discipline_maps=(chem_map,))
        assert a == b

    def test_unknown_discipline_lookup(self, small_corpus):
        with pytest.raises(UnknownDisciplineError):
            small_corpus.discipline_map("astrology")

    def test_library_built_duplicates_reported_in_order(self, chem_map):
        with pytest.raises(CorpusValidationError) as err:
            Corpus(
                publications=(record("P2"), record("P1"), record("P1", 2004), record("P1", 2005)),
                profiles=(profile(discipline="chemistry"), profile(discipline="Chemistry")),
                discipline_maps=(chem_map, DisciplineMap("Chemistry", frozenset({"Chemistry"}))),
            )
        assert err.value.violations == [
            "duplicate pub_id 'P1'",
            "duplicate pub_id 'P1'",
            "duplicate profile for Alpha/chemistry",
            "duplicate discipline map 'chemistry'",
        ]

    def test_padded_pub_id_is_the_same_pub_id(self, chem_map):
        with pytest.raises(CorpusValidationError) as err:
            Corpus(publications=(record(" P1"), record("P1")), discipline_maps=(chem_map,))
        assert err.value.violations == ["duplicate pub_id 'P1'"]


class TestIngest:
    def test_minimal_round_trip(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,2003,GB,Alpha,Chemistry",
            citations="P1,2004,3",
            profiles="Alpha,chemistry,25,25,25,25,0,,,,,,10,",
            dmap="chemistry,Chemistry",
        )
        corpus = ingest_corpus(
            paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
        )
        assert len(corpus.publications) == 1
        assert len(corpus.profiles) == 1
        assert corpus.publications[0].citations_by_year == {2004: 3}

    def test_citing_year_before_pub_year_names_pub_id(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,2003,GB,Alpha,Chemistry",
            citations="P1,2002,3",
            dmap="chemistry,Chemistry",
        )
        with pytest.raises(CorpusValidationError, match="P1") as exc:
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )
        assert "citations.csv:2" in str(exc.value)

    def test_profile_sum_99_reports_profile_sum(self, tmp_path):
        # independent check of the fixture arithmetic
        assert sum((40.0, 30.0, 19.0, 10.0, 0.0)) == 99.0
        paths = write_files(
            tmp_path,
            profiles="Alpha,chemistry,40,30,19,10,0,,,,,,10,",
            dmap="chemistry,Chemistry",
        )
        with pytest.raises(CorpusValidationError, match="profile sum"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )

    def test_duplicate_pub_id_reported_with_line(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,2003,GB,Alpha,Chemistry\nP1,2004,GB,Beta,Chemistry",
        )
        with pytest.raises(CorpusValidationError, match=r"publications\.csv:3.*duplicate pub_id"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )

    def test_malformed_row_reports_file_line_field(self, tmp_path):
        paths = write_files(tmp_path, publications="P1,20x3,GB,Alpha,Chemistry")
        with pytest.raises(CorpusValidationError, match=r"publications\.csv:2.*pub_year"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )

    def test_unknown_citation_pub_id_reported(self, tmp_path):
        paths = write_files(tmp_path, citations="P404,2004,1")
        with pytest.raises(CorpusValidationError, match="unknown pub_id"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )

    def test_citation_rows_summed_per_year(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,2003,GB,Alpha,Chemistry",
            citations="P1,2004,3\nP1,2004,2\nP1,2005,1",
        )
        corpus = ingest_corpus(
            paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
        )
        assert corpus.publications[0].citations_by_year == {2004: 5, 2005: 1}

    def test_bad_header_rejected(self, tmp_path):
        paths = write_files(tmp_path)
        paths["publications"].write_text("id,year\nP1,2003\n", encoding="utf-8")
        with pytest.raises(CorpusValidationError, match="bad header"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )

    def test_json_mirror_equals_csv(self, tmp_path):
        csv_paths = write_files(
            tmp_path,
            publications='P1,2003,GB,Alpha;Beta,"Chemistry;Chemical Engineering"',
            citations="P1,2004,3",
            profiles="Alpha,chemistry,25,25,25,25,0,30,30,20,20,0,10,1.25",
            dmap="chemistry,Chemistry\nchemistry,Chemical Engineering",
        )
        from_csv = ingest_corpus(
            csv_paths["publications"], csv_paths["citations"],
            csv_paths["profiles"], csv_paths["discipline_map"],
        )
        jdir = tmp_path / "json"
        jdir.mkdir()
        (jdir / "publications.json").write_text(json.dumps([
            {"pub_id": "P1", "pub_year": 2003, "country": "GB",
             "affiliations": ["Alpha", "Beta"],
             "categories": ["Chemistry", "Chemical Engineering"]}
        ]), encoding="utf-8")
        (jdir / "citations.json").write_text(
            json.dumps([{"pub_id": "P1", "citing_year": 2004, "count": 3}]), encoding="utf-8"
        )
        (jdir / "profiles.json").write_text(json.dumps([
            {"institution": "Alpha", "discipline": "chemistry",
             "p4": 25, "p3": 25, "p2": 25, "p1": 25, "pu": 0,
             "p4_out": 30, "p3_out": 30, "p2_out": 20, "p1_out": 20, "pu_out": 0,
             "staff_fte": 10, "nci": 1.25}
        ]), encoding="utf-8")
        (jdir / "discipline_map.json").write_text(json.dumps([
            {"discipline": "chemistry", "category": "Chemistry"},
            {"discipline": "chemistry", "category": "Chemical Engineering"},
        ]), encoding="utf-8")
        from_json = ingest_corpus(
            jdir / "publications.json", jdir / "citations.json",
            jdir / "profiles.json", jdir / "discipline_map.json",
        )
        assert from_csv == from_json

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # a U+FEFF past the start of the file stays in its cell, through the
        # clean pass (profiles) and the validator (the discipline map)
        paths = write_files(tmp_path, profiles="\ufeffAlpha,chemistry,25,25,25,25,0,,,,,,10,",
                            dmap="chemistry,\ufeffChemistry")
        for name in ("profiles", "discipline_map"):
            paths[name].write_text("\ufeff" + paths[name].read_text(encoding="utf-8"), encoding="utf-8")
        profiles, violations = load_profiles(paths["profiles"])
        assert [p.institution for p in profiles] == ["\ufeffAlpha"] and violations == []
        assert load_discipline_maps(paths["discipline_map"]) == (
            (DisciplineMap("chemistry", frozenset({"\ufeffChemistry"})),), [])

    @pytest.mark.parametrize("affiliations", [None, "MISSING"])
    def test_json_null_list_field_is_missing(self, tmp_path, affiliations):
        # a null affiliations list once became the institution "None"
        pub = {"pub_id": "P1", "pub_year": 2003, "country": "GB", "categories": ["Chemistry"]}
        if affiliations != "MISSING":
            pub["affiliations"] = affiliations
        (tmp_path / "publications.json").write_text(json.dumps([pub]), encoding="utf-8")
        (tmp_path / "citations.json").write_text("[]", encoding="utf-8")
        records, violations = load_publications(
            tmp_path / "publications.json", tmp_path / "citations.json"
        )
        assert records == ()
        assert violations == ["publications.json:1: P1: affiliations must be non-empty"]

    def test_json_text_fields_of_profiles_and_maps_must_be_strings(self, tmp_path):
        bands = {"p4": 100, "p3": 0, "p2": 0, "p1": 0, "pu": 0, "staff_fte": 1}
        (tmp_path / "profiles.json").write_text(json.dumps([
            {"institution": 44, "discipline": "chemistry", **bands},
            {"institution": "Alpha", "discipline": ["chemistry"], **bands},
            {"institution": "Beta", "discipline": "chemistry", **bands},
        ]), encoding="utf-8")
        (tmp_path / "discipline_map.json").write_text(json.dumps([
            {"discipline": "chemistry", "category": ["Chemistry"]},
            {"discipline": "chemistry", "category": "Chemistry"},
        ]), encoding="utf-8")
        profiles, violations = load_profiles(tmp_path / "profiles.json")
        assert [p.institution for p in profiles] == ["Beta"]
        assert violations == ["profiles.json:1: field 'institution': not a string: 44",
                              "profiles.json:2: field 'discipline': not a string: ['chemistry']"]
        maps, violations = load_discipline_maps(tmp_path / "discipline_map.json")
        assert maps == (DisciplineMap("chemistry", frozenset({"Chemistry"})),)
        assert violations == ["discipline_map.json:1: field 'category': not a string: ['Chemistry']"]

    def test_shape_violations_precede_row_violations(self, tmp_path):
        paths = write_files(
            tmp_path,
            publications="P1,abc,GB,Alpha,Chemistry\nP2,2003,GB\nP3,2003,GB,Alpha,Chemistry",
            citations="P9,2004,1\nP3,2004",
        )
        _, violations = load_publications(paths["publications"], paths["citations"])
        assert violations == [
            "publications.csv:3: expected 5 fields, got 3",
            "publications.csv:2: field 'pub_year': not an integer: 'abc'",
            "citations.csv:3: expected 3 fields, got 2",
            "citations.csv:2: unknown pub_id 'P9'",
        ]


    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_record_spanning_lines_refused_and_later_lines_physical(self, tmp_path, eol):
        paths = write_files(tmp_path)
        header = "pub_id,pub_year,country,affiliations,categories"
        paths["publications"].write_bytes(eol.join([
            header, 'P1,2003,GB,"Alpha', 'Beta",Chemistry', "P2,20x3,GB,Alpha,Chemistry", "",
        ]).encode())
        paths["citations"].write_bytes(eol.join([
            "pub_id,citing_year,count", '"P', '', '2",2004,1', "P404,2004,1", "",
        ]).encode())
        records, violations = load_publications(paths["publications"], paths["citations"])
        assert records == ()
        assert violations == [
            "publications.csv:2: record spans lines 2-3; a cell contains a line break",
            "publications.csv:4: field 'pub_year': not an integer: '20x3'",
            "citations.csv:2: record spans lines 2-4; a cell contains a line break",
            "citations.csv:5: unknown pub_id 'P404'",
        ]

    def test_profile_spanning_lines_is_a_located_error(self, tmp_path):
        paths = write_files(
            tmp_path, profiles='"Alpha\nBeta",chemistry,25,25,25,25,0,,,,,,10,1.25',
            dmap="chemistry,Chemistry",
        )
        with pytest.raises(CorpusValidationError, match=r"profiles\.csv:2: record spans lines 2-3"):
            ingest_corpus(
                paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
            )


class TestFilterDocuments:
    def test_window_boundary_excludes_2000(self, small_corpus):
        got = filter_documents(small_corpus, "GB", WINDOW, "chemistry", "Alpha")
        assert "P3" not in {r.pub_id for r in got}

    def test_wrong_country_excluded(self, small_corpus):
        got = filter_documents(small_corpus, "GB", WINDOW, "chemistry", "Alpha")
        assert "P4" not in {r.pub_id for r in got}

    def test_exactly_the_two_matching_records(self, small_corpus):
        # brute-force predicate evaluation over all five records
        dmap_cats = {"chemistry", "chemical engineering"}
        expected = {
            r.pub_id
            for r in small_corpus.publications
            if (r.country or "").upper() == "GB"
            and 2001 <= r.pub_year <= 2007
            and {c.casefold() for c in r.categories} & dmap_cats
            and "Alpha" in r.affiliations
        }
        assert expected == {"P1", "P2"}
        got = filter_documents(small_corpus, "GB", WINDOW, "chemistry", "Alpha")
        assert {r.pub_id for r in got} == expected

    def test_multi_affiliation_returned_for_each_institution(self, small_corpus):
        for inst in ("Alpha", "Beta"):
            got = filter_documents(small_corpus, "GB", WINDOW, "chemistry", inst)
            assert "P2" in {r.pub_id for r in got}

    def test_missing_country_excluded_not_error(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", country=None),),
            discipline_maps=(chem_map,),
        )
        assert filter_documents(corpus, "GB", WINDOW, "chemistry", "Alpha") == []

    def test_category_match_is_normalized(self, chem_map):
        corpus = Corpus(
            publications=(record("P1", categories=("  chemistry ",)),),
            discipline_maps=(chem_map,),
        )
        assert len(filter_documents(corpus, "gb", WINDOW, "Chemistry", "Alpha")) == 1

    def test_unknown_discipline_raises(self, small_corpus):
        with pytest.raises(UnknownDisciplineError):
            filter_documents(small_corpus, "GB", WINDOW, "astrology", "Alpha")


def _synth_corpus(seed):
    return generate(
        SynthConfig(
            seed=seed,
            n_institutions=6,
            papers_per_institution=(5, 12),
            window=WINDOW,
            citation_model=Lognormal(1.5, 0.6),
            accrual=0.4,
            quality_link=0.6,
        )
    )


class TestFilterProperties:
    def test_idempotent(self):
        corpus = _synth_corpus(11)
        first = filter_documents(corpus, "GB", WINDOW, "synthetic", "HEI001")
        refiltered = filter_documents(
            Corpus(publications=tuple(first), discipline_maps=corpus.discipline_maps),
            "GB", WINDOW, "synthetic", "HEI001",
        )
        assert first == refiltered

    def test_monotone_in_window(self):
        corpus = _synth_corpus(12)
        rng = np.random.default_rng(0)
        for _ in range(30):
            inst = f"HEI{rng.integers(1, 7):03d}"
            inner = PublicationWindow(2002, 2005)
            outer = PublicationWindow(2000, 2009)
            small = {r.pub_id for r in filter_documents(corpus, "GB", inner, "synthetic", inst)}
            large = {r.pub_id for r in filter_documents(corpus, "GB", outer, "synthetic", inst)}
            assert small <= large

    def test_monotone_in_category_set(self):
        corpus = _synth_corpus(13)
        narrow = DisciplineMap("synthetic", frozenset({"Synthetic Studies"}))
        wide = DisciplineMap(
            "synthetic", frozenset({"Synthetic Studies", "Applied Synthetics", "Unrelated Arts"})
        )
        for inst in ("HEI001", "HEI004"):
            small = {
                r.pub_id
                for r in filter_documents(
                    Corpus(publications=corpus.publications, discipline_maps=(narrow,)),
                    "GB", WINDOW, "synthetic", inst,
                )
            }
            large = {
                r.pub_id
                for r in filter_documents(
                    Corpus(publications=corpus.publications, discipline_maps=(wide,)),
                    "GB", WINDOW, "synthetic", inst,
                )
            }
            assert small <= large


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_write_then_ingest_is_identity(self, tmp_path, seed):
        corpus = _synth_corpus(seed)
        paths = write_corpus(corpus, tmp_path / str(seed))
        again = ingest_corpus(
            paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
        )
        assert corpus == again
        assert [list(r.citations_by_year.items()) for r in again.publications] == [
            list(r.citations_by_year.items()) for r in corpus.publications
        ]

    def test_padded_library_corpus_round_trips(self, tmp_path, chem_map):
        corpus = Corpus(
            publications=(record(" P1 ", affiliations=(" Alpha ", " "), categories=(" Chemistry ", ""),
                                 citations={2005: 1, 2004: 2}),),
            profiles=(profile(institution=" Alpha "),),
            discipline_maps=(chem_map,),
        )
        assert corpus.publications == (record("P1", citations={2004: 2, 2005: 1}),)
        paths = write_corpus(corpus, tmp_path)
        again = ingest_corpus(
            paths["publications"], paths["citations"], paths["profiles"], paths["discipline_map"]
        )
        assert again == corpus

    def test_descending_citation_years_write_in_year_order(self, tmp_path, chem_map):
        corpus = Corpus(
            publications=(record("P2", citations={2007: 3, 2005: 1, 2003: 2}),
                          record("P1", citations={2006: 4, 2004: 5})),
            discipline_maps=(chem_map,),
        )
        paths = write_corpus(corpus, tmp_path)
        assert paths["citations"].read_bytes() == (
            b"pub_id,citing_year,count\n"
            b"P1,2004,5\nP1,2006,4\n"
            b"P2,2003,2\nP2,2005,1\nP2,2007,3\n"
        )

    def test_write_is_byte_stable(self, tmp_path):
        corpus = _synth_corpus(4)
        p1 = write_corpus(corpus, tmp_path / "a")
        p2 = write_corpus(corpus, tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


def test_every_public_name_resolves():
    import refh

    assert [name for name in refh.__all__ if not hasattr(refh, name)] == []
