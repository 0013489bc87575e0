import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attlab.violations as viol
from attlab.errors import ConfigurationError, SchemaError
from attlab.records import (
    CSV_HEADER,
    DOSE_FIELDS,
    Cohort,
    Period,
    Treatment,
    TumorLocation,
    cohort_csv_bytes,
    format_dose,
    json_bytes,
    read_cohort_csv,
    validate,
    write_outputs,
)

from conftest import cohort_of, make_post_record, make_record
from records_oracle import (
    DosePlan,
    PatientRecord,
    PotentialOutcomes,
    cohort_of_records,
    read_records,
    records_csv_bytes,
    records_of,
    validate_records,
)


class TestValidate:
    def test_pre_record_with_proton_plan_is_flagged(self):
        bad = make_record(rid="pre-7", proton=(30.0, 28.0, 22.0, 25.0))
        violations = validate(cohort_of([make_record(rid="pre-1"), bad]), Period.PRE)
        assert len(violations) == 1
        assert violations[0].record_id == "pre-7"
        assert violations[0].field == "proton_doses"

    def test_empty_cohort(self):
        violations = validate(cohort_of([]), Period.PRE)
        assert len(violations) == 1
        assert "empty" in violations[0].rule

    def test_well_formed_cohort_is_clean(self):
        records = [make_record(rid=f"pre-{i}", dysphagia=i % 2, outcome=i % 2) for i in range(3)]
        assert validate(cohort_of(records), Period.PRE) == []

    def test_target_requires_post_and_proton(self):
        bad = make_record(rid="x-1", treatment=Treatment.TARGET)
        violations = validate(cohort_of([bad]), Period.PRE)
        fields = {v.field for v in violations}
        assert "treatment" in fields  # target in a pre cohort
        assert "proton_doses" in fields

    def test_dose_bounds(self):
        bad = make_record(rid="d-1", photon=(90.0, 50.0, 40.0, -1.0))
        violations = validate(cohort_of([bad]), Period.PRE)
        assert {v.field for v in violations} == {"photon_doses.dose_sup_pcm", "photon_doses.dose_oral_cavity"}

    def test_outcome_matches_latent_potential_outcome(self):
        bad = make_record(rid="l-1", outcome=1, latent=PotentialOutcomes(y0=0, y1=1, p0=0.2, p1=0.1))
        violations = validate(cohort_of([bad]), Period.PRE)
        assert any(v.field == "outcome" for v in violations)

    def test_duplicate_record_id_is_flagged(self, tmp_path):
        records = [make_record(rid="pre-0001"), make_record(rid="pre-0002"), make_record(rid="pre-0001")]
        path = tmp_path / "dup.csv"
        path.write_bytes(cohort_csv_bytes(cohort_of(records)))
        cohort = read_cohort_csv(path)
        assert len(cohort) == 3
        violations = validate(cohort, Period.PRE)
        assert [(v.record_id, v.field) for v in violations] == [("pre-0001", "id")]
        assert "pre-0001" in str(violations[0])

    def test_idempotent_and_order_insensitive(self):
        records = [
            make_record(rid="a", photon=(90.0, 50.0, 40.0, 42.0)),
            make_record(rid="b"),
            make_record(rid="c", outcome=2),
        ]
        cohort = cohort_of(records)
        first = validate(cohort, Period.PRE)
        second = validate(cohort, Period.PRE)
        assert first == second
        shuffled = cohort_of([records[2], records[0], records[1]])
        assert sorted(str(v) for v in validate(shuffled, Period.PRE)) == sorted(str(v) for v in first)


class TestCsvRoundTrip:
    def test_generated_world_round_trips_byte_exact(self, tmp_path, small_world):
        for cohort in (small_world.pre, small_world.post):
            p1 = tmp_path / "a.csv"
            p2 = tmp_path / "b.csv"
            p1.write_bytes(cohort_csv_bytes(cohort))
            reread = read_cohort_csv(p1)
            p2.write_bytes(cohort_csv_bytes(reread))
            assert p1.read_bytes() == p2.read_bytes()

    def test_parse_preserves_period_and_treatment(self, tmp_path, small_world):
        path = tmp_path / "post.csv"
        path.write_bytes(cohort_csv_bytes(small_world.post))
        cohort = read_cohort_csv(path)
        assert cohort.post.all()
        assert np.sum(cohort.treatment == Treatment.TARGET.value) == len(small_world.post.treated())

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,period\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_cohort_csv(path)

    def test_empty_file_raises_asking_for_a_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="^1 schema violation\\(s\\): <cohort>: file is empty, header required$"):
            read_cohort_csv(path)

    def test_parse_collects_all_violations(self, tmp_path, small_world):
        path = tmp_path / "pre.csv"
        path.write_bytes(cohort_csv_bytes(small_world.pre))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("pre,0", "pre,7", 1)  # bad treatment
        parts = lines[2].split(",")
        parts[5] = "not-a-dose"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_cohort_csv(path)
        assert len(err.value.violations) == 2

    def test_partial_proton_columns_rejected(self, tmp_path, small_world):
        path = tmp_path / "post.csv"
        path.write_bytes(cohort_csv_bytes(small_world.post))
        lines = path.read_text(encoding="utf-8").splitlines()
        parts = lines[1].split(",")
        parts[9] = ""  # blank one proton column only
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_cohort_csv(path)
        assert any("proton" in str(v) for v in err.value.violations)


class TestDoseText:
    @pytest.mark.parametrize(
        "value,expected",
        [(55.1234, "55.1234"), (55.1, "55.1"), (55.0, "55"), (0.0, "0"), (7.00006, "7.0001")],
    )
    def test_canonical_dose_text(self, value, expected):
        assert format_dose(value) == expected


class TestColumns:
    def test_records_round_trip_through_columns(self):
        records = (
            make_record(rid="a", dysphagia=1, outcome=1, latent=PotentialOutcomes(y0=1, y1=0, p0=0.4, p1=0.2)),
            make_post_record(rid="b", proton=(30.5, 20.25, 10.0, 5.125),
                             latent=PotentialOutcomes(y0=0, y1=0, p0=0.3, p1=0.1)),
        )
        cohort = cohort_of_records(records)
        assert cohort.ids.tolist() == ["a", "b"]
        assert cohort.has_proton.tolist() == [False, True]
        assert np.isnan(cohort.proton[0]).all()
        assert records_of(cohort) == records

    def test_latent_columns_need_every_record_to_carry_them(self):
        records = [make_record(rid="a", latent=PotentialOutcomes(y0=0, y1=0, p0=0.2, p1=0.1)),
                   make_record(rid="b")]
        cohort = cohort_of(records)
        assert cohort.p0 is None and cohort.y1 is None
        assert records_of(cohort) == (dataclasses.replace(records[0], latent=None), records[1])

    @pytest.mark.parametrize("given", [("p0", "p1"), ("y0", "y1"), ("p0", "p1", "y0")])
    def test_a_partial_latent_block_names_the_missing_fields(self, small_world, given):
        # A generated post cohort without its potential outcomes would pass as
        # a cohort and then fail validate with false outcome violations.
        arrays = {f.name: getattr(small_world.post, f.name) for f in dataclasses.fields(Cohort)}
        missing = [name for name in ("p0", "p1", "y0", "y1") if name not in given]
        with pytest.raises(ConfigurationError, match=f"latent block is partial: {', '.join(missing)} missing"):
            Cohort(**{**arrays, **dict.fromkeys(missing)})

    def test_columns_are_read_only(self, small_world):
        with pytest.raises(ValueError):
            small_world.pre.outcome[0] = 1

    def test_treated_and_standard_split_the_cohort_in_order(self, small_world):
        post = small_world.post
        treated, standard = post.treated(), post.standard()
        assert isinstance(treated, Cohort)
        records = records_of(post)
        assert records_of(treated) == tuple(r for r in records if r.treatment is Treatment.TARGET)
        assert records_of(standard) == tuple(r for r in records if r.treatment is Treatment.STANDARD)
        assert len(treated) + len(standard) == len(post)

    def test_cohort_takes_its_arrays_by_keyword(self, small_world):
        pre = small_world.pre
        arrays = {f.name: getattr(pre, f.name) for f in dataclasses.fields(Cohort)}
        with pytest.raises(TypeError):
            Cohort(*arrays.values())
        assert_same_cohort(Cohort(**arrays), pre)

    @pytest.mark.parametrize(
        "name, cut",
        [("outcome", lambda a: a[:-5]), ("dysphagia", lambda a: a[1:]), ("p0", lambda a: a[:, None]),
         ("photon", lambda a: a[:, :3]), ("proton", lambda a: a[:-1])],
        ids=["outcome", "dysphagia", "p0", "photon", "proton"],
    )
    def test_arrays_without_one_row_per_id_name_their_field(self, small_world, name, cut):
        arrays = {f.name: getattr(small_world.pre, f.name) for f in dataclasses.fields(Cohort)}
        arrays[name] = cut(arrays[name])
        with pytest.raises(ConfigurationError, match=f"cohort field {name} has shape"):
            Cohort(**arrays)

    @pytest.mark.parametrize("name, code", [("loc_code", 4), ("loc_code", -1), ("treatment", 5)])
    def test_codes_outside_their_enum_name_their_field(self, small_world, name, code):
        arrays = {f.name: getattr(small_world.pre, f.name).copy() for f in dataclasses.fields(Cohort)}
        arrays[name][3] = code
        with pytest.raises(ConfigurationError, match=f"cohort field {name} holds {code}, outside its codes"):
            Cohort(**arrays)

    def test_cohort_keeps_its_own_copy_of_the_callers_arrays(self, small_world):
        arrays = {f.name: getattr(small_world.pre, f.name).copy() for f in dataclasses.fields(Cohort)}
        cohort = Cohort(**arrays)
        for name, mine in arrays.items():
            assert mine.flags.writeable, name
            assert not getattr(cohort, name).flags.writeable, name
        arrays["outcome"][0] = 1 - arrays["outcome"][0]
        arrays["photon"][0, 0] = 1.0
        assert_same_cohort(cohort, small_world.pre)

    def test_read_only_views_of_writable_arrays_are_copied(self, small_world):
        arrays = {f.name: getattr(small_world.pre, f.name) for f in dataclasses.fields(Cohort)}
        mine = small_world.pre.outcome.copy()
        view = mine.view()
        view.flags.writeable = False
        cohort = Cohort(**{**arrays, "outcome": view})
        mine[0] = 1 - mine[0]
        assert_same_cohort(cohort, small_world.pre)


def any_rows(n):
    """Row selections of a cohort of ``n``: masks and index arrays, among them empty, all rows and reversed."""
    fixed = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.array([], dtype=int), np.arange(n), np.arange(n)[::-1]]
    drawn = [st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, dtype=bool))]
    if n:
        drawn.append(st.lists(st.integers(0, n - 1), max_size=2 * n).map(lambda r: np.array(r, dtype=int)))
    return st.one_of(st.sampled_from(fixed), *drawn)


def assert_subset(subset: Cohort, cohort: Cohort, rows):
    """``subset`` holds each field of ``cohort`` at ``rows`` as a read-only array of its own, and is a valid cohort."""
    for f in dataclasses.fields(Cohort):
        got, whole = getattr(subset, f.name), getattr(cohort, f.name)
        if whole is None:
            assert got is None, f.name
            continue
        want = whole[rows]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), f.name
        assert not got.flags.writeable and got.flags.owndata, f.name
    assert_same_cohort(Cohort(**{f.name: getattr(subset, f.name) for f in dataclasses.fields(Cohort)}), subset)


class TestSubsets:
    @given(data=st.data())
    def test_a_subset_holds_the_rows_of_each_field_as_read_only_arrays_of_its_own(self, small_world, data):
        first = {f.name: getattr(small_world.pre, f.name)[:30] for f in dataclasses.fields(Cohort)}
        without_latent = {f.name: getattr(small_world.post, f.name)[:30] for f in dataclasses.fields(Cohort)}
        without_latent.update(p0=None, p1=None, y0=None, y1=None)
        for cohort in (Cohort(**first), Cohort(**without_latent)):
            rows = data.draw(any_rows(len(cohort)))
            subset = cohort.take(rows)
            assert_subset(subset, cohort, rows)
            again = data.draw(any_rows(len(subset)))
            assert_subset(subset.take(again), subset, again)

    @pytest.mark.parametrize("rows", [3, np.array([[0, 1], [2, 3]])], ids=["scalar", "2-d index"])
    def test_a_selection_that_is_not_a_mask_or_an_index_array_is_refused(self, small_world, rows):
        with pytest.raises(ConfigurationError, match="cohort rows must be a mask or an index array"):
            small_world.pre.take(rows)

    def test_a_subset_of_no_rows_keeps_its_latent_block_as_empty_arrays(self, small_world):
        none = small_world.post.take(np.zeros(len(small_world.post), dtype=bool))
        assert [getattr(none, name).shape for name in ("p0", "p1", "y0", "y1")] == [(0,)] * 4
        again = Cohort(**{f.name: getattr(none, f.name) for f in dataclasses.fields(Cohort)})
        assert len(again) == 0 and again.p0.shape == (0,)

    def test_treated_and_standard_are_the_masked_subsets(self, small_world):
        post = small_world.post
        assert_subset(post.treated(), post, post.treatment == Treatment.TARGET.value)
        assert_subset(post.standard(), post, post.treatment == Treatment.STANDARD.value)


class TestReaderRobustness:
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, small_world):
        path = tmp_path / "pre.csv"
        path.write_bytes(cohort_csv_bytes(small_world.pre))
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"pre", b"pr\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SchemaError) as err:
            read_cohort_csv(path)
        assert f"{path} line 4" in str(err.value)
        assert "UTF-8" in str(err.value)

    def test_field_over_the_csv_limit_names_the_file_and_line(self, tmp_path, small_world):
        path = tmp_path / "pre.csv"
        path.write_bytes(cohort_csv_bytes(small_world.pre))
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[4] = "x" * 140_000 + lines[4]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_cohort_csv(path)
        assert f"{path} line 5" in str(err.value)
        assert "field limit" in str(err.value)


_doses = st.integers(0, 800_000).map(lambda tenths_of_mgy: tenths_of_mgy / 10_000)
_plans = st.builds(DosePlan, _doses, _doses, _doses, _doses)
_records = st.builds(
    PatientRecord,
    id=st.text(st.characters(codec="utf-8"), min_size=1, max_size=12),
    period=st.sampled_from(Period),
    treatment=st.sampled_from(Treatment),
    baseline_dysphagia=st.integers(0, 1),
    tumor_location=st.sampled_from(TumorLocation),
    photon_doses=_plans,
    outcome=st.integers(0, 1),
    proton_doses=st.none() | _plans,
)

# Edits applied to a valid file: (position, bytes deleted there, bytes inserted).
_tokens = st.sampled_from([b",", b'"', b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", "é".encode(),
                           b"nan", b"inf", b"-1", b"1e999", b"", b"pre", b"post", b"x" * 140_000])
_edits = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 4), _tokens | st.binary(max_size=6)),
                  min_size=1, max_size=4)


class TestCsvProperties:
    @settings(max_examples=60)
    @given(records=st.lists(_records, max_size=6))
    def test_written_records_read_back_equal(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        path.write_bytes(cohort_csv_bytes(cohort_of(records)))
        assert records_of(read_cohort_csv(path)) == tuple(records)

    @settings(max_examples=150)
    @given(edits=_edits)
    def test_mangled_file_raises_only_schema_error(self, tmp_path_factory, edits):
        records = [make_record(rid=f"p-{i}", outcome=i % 2) for i in range(3)]
        records.append(make_post_record(rid="q-1"))
        path = tmp_path_factory.getbasetemp() / "mangled.csv"
        path.write_bytes(cohort_csv_bytes(cohort_of(records)))
        data = path.read_bytes()
        for position, deleted, inserted in edits:
            at = position % (len(data) + 1)
            data = data[:at] + inserted + data[at + deleted:]
        path.write_bytes(data)
        try:
            read_cohort_csv(path)
        except SchemaError:
            pass


# ---------------------------------------------------------------------------
# The columnar reader, validator and writer against the record-based oracle
# ---------------------------------------------------------------------------

def assert_same_cohort(got: Cohort, expected: Cohort):
    for f in dataclasses.fields(Cohort):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if a is None or b is None:
            assert a is b, f.name
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f.name


def assert_reads_as_the_oracle(path, period):
    """The reader raises the record reader's violations, or reads its records and validates them alike."""
    try:
        expected = read_records(path)
    except SchemaError as err:
        with pytest.raises(SchemaError) as got:
            read_cohort_csv(path)
        assert got.value.violations == err.violations
        assert str(got.value) == str(err)
    else:
        cohort = read_cohort_csv(path)
        assert_same_cohort(cohort, cohort_of_records(expected))
        assert validate(cohort, period) == validate_records(expected, period)


# Doses inside and outside [0, 80], and non-finite ones.
_any_doses = _doses | st.floats(-1e3, 1e22) | st.sampled_from(
    [-0.0, -0.00004, -0.5, 80.0001, 120.0, 1e20, float("nan"), float("inf"), float("-inf")]
)
_any_plans = st.builds(DosePlan, _any_doses, _any_doses, _any_doses, _any_doses)
_binary_or_not = st.sampled_from([0, 1, 0, 1, -1, 2])
_risks = st.sampled_from([0.2, 0.7, 0.0, 1.0, 1.5, float("nan")])
_latents = st.builds(PotentialOutcomes, _binary_or_not, _binary_or_not, _risks, _risks)
# A few ids, so that some repeat; "a\x00" differs from "a" only by a trailing NUL.
_ids = st.sampled_from(["a", "b", "c", "a\x00", "pre-0001", "x,y"])


def _any_records(latent):
    return st.builds(
        PatientRecord,
        id=_ids,
        period=st.sampled_from(Period),
        treatment=st.sampled_from(Treatment),
        baseline_dysphagia=_binary_or_not,
        tumor_location=st.sampled_from(TumorLocation),
        photon_doses=_any_plans,
        outcome=_binary_or_not,
        proton_doses=st.none() | _any_plans,
        latent=_latents if latent else st.none(),
    )


# A cohort's records either all carry latent outcomes or none do.
_record_cohorts = st.booleans().flatmap(lambda latent: st.lists(_any_records(latent), max_size=8))


class TestAgainstTheRecordOracle:
    @settings(max_examples=300)
    @given(records=_record_cohorts, period=st.sampled_from(Period))
    def test_validate_lists_what_the_record_walk_lists(self, records, period):
        cohort = cohort_of_records(records)
        assert validate(cohort, period) == validate_records(records, period)

    @settings(max_examples=100)
    @given(records=_record_cohorts)
    def test_writer_writes_what_the_record_writer_writes(self, records):
        assert cohort_csv_bytes(cohort_of(records)) == records_csv_bytes(records)

    @settings(max_examples=100)
    @given(records=_record_cohorts, period=st.sampled_from(Period))
    def test_reader_reads_what_the_record_reader_reads(self, tmp_path_factory, records, period):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(records_csv_bytes(records))
        assert_reads_as_the_oracle(path, period)

    @settings(max_examples=300)
    @given(edits=_edits)
    def test_mangled_file_reads_as_the_record_reader_reads_it(self, tmp_path_factory, edits):
        records = [make_record(rid=f"p-{i}", outcome=i % 2) for i in range(3)]
        records.append(make_post_record(rid="q-1"))
        path = tmp_path_factory.getbasetemp() / "mangled_oracle.csv"
        data = records_csv_bytes(records)
        for position, deleted, inserted in edits:
            at = position % (len(data) + 1)
            data = data[:at] + inserted + data[at + deleted:]
        path.write_bytes(data)
        assert_reads_as_the_oracle(path, Period.PRE)

    def test_every_problem_of_a_row_comes_in_column_order(self, tmp_path):
        rows = [
            "r1,later,2,3,mouth,x,1,2,3,,,,,9",
            "r2,pre,7,0,larynx,1,2,3,4,5,,7,8,0",
            "short,row",
            "r4,post,1,1,larynx,1,2,3,4,a,b,c,d,1",
        ]
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as got:
            read_cohort_csv(path)
        with pytest.raises(SchemaError) as expected:
            read_records(path)
        assert got.value.violations == expected.value.violations
        assert [(v.record_id, v.field) for v in got.value.violations] == [
            ("r1", "period"), ("r1", "treatment"), ("r1", "baseline_dysphagia"), ("r1", "tumor_location"),
            ("r1", "dose_sup_pcm"), ("r1", "outcome"), ("r2", "treatment"), ("r2", "proton_doses"), ("line 4", None),
            ("r4", "dose_sup_pcm_proton"), ("r4", "dose_mid_pcm_proton"), ("r4", "dose_inf_pcm_proton"),
            ("r4", "dose_oral_cavity_proton"),
        ]


class TestKnownTraps:
    def test_ids_keep_trailing_nuls(self, tmp_path):
        # A numpy str array would read "a\x00" back as "a" and call it a duplicate.
        records = [make_record(rid="a"), make_record(rid="a\x00"), make_record(rid="\x00")]
        cohort = cohort_of(records)
        assert cohort.ids.tolist() == ["a", "a\x00", "\x00"]
        assert validate(cohort, Period.PRE) == []
        path = tmp_path / "nul.csv"
        path.write_bytes(cohort_csv_bytes(cohort))
        reread = read_cohort_csv(path)
        assert records_of(reread) == tuple(records)
        assert validate(reread, Period.PRE) == []

    def test_latent_outcomes_carried_by_only_some_records_are_dropped(self):
        # A cohort holds latent outcomes only when every patient has them,
        # so a mismatch on the one record that carries them goes unreported.
        mismatched = make_record(rid="a", outcome=1, latent=PotentialOutcomes(y0=0, y1=0, p0=0.2, p1=0.1))
        records = [mismatched, make_record(rid="b")]
        assert [v.field for v in validate_records(records, Period.PRE)] == ["outcome"]
        cohort = cohort_of(records)
        assert cohort.p0 is None and cohort.y0 is None
        assert validate(cohort, Period.PRE) == []
        assert all(r.latent is None for r in records_of(cohort))

    def test_a_proton_plan_of_nans_is_still_a_plan(self):
        nan_plan = (float("nan"),) * 4
        cohort = cohort_of([make_record(rid="a", proton=nan_plan)])
        assert cohort.has_proton.tolist() == [True]
        assert [v.field for v in validate(cohort, Period.PRE)] == ["proton_doses"] + [
            f"proton_doses.{organ}" for organ in DOSE_FIELDS
        ]


@dataclasses.dataclass(frozen=True)
class Pair:
    low: object
    high: object


class TestOutputFiles:
    def test_json_bytes_is_indented_strict_and_newline_terminated(self):
        assert json_bytes({"a": [1, 0.5], "b": None}) == b'{\n  "a": [\n    1,\n    0.5\n  ],\n  "b": null\n}\n'
        with pytest.raises(ValueError, match="JSON"):
            json_bytes({"a": float("nan")})

    def test_a_dataclass_holding_nan_is_refused(self):
        with pytest.raises(ValueError, match="JSON"):
            json_bytes({"block": Pair(0.5, float("nan"))})

    @pytest.mark.parametrize("value", [np.int64(3), object()], ids=["numpy integer", "object"])
    def test_a_value_with_no_json_form_is_refused(self, value):
        with pytest.raises(TypeError, match="has no JSON form"):
            json_bytes({"block": Pair(value, 1.0)})

    def test_a_dataclass_is_its_fields_in_order_and_an_enum_its_value(self):
        payload = Pair(Pair(Period.POST, Treatment.TARGET), (1.5, None))
        assert json_bytes(payload) == json_bytes({"low": {"low": "post", "high": 1}, "high": [1.5, None]})

    def test_a_payload_that_fails_to_render_writes_no_file(self, tmp_path):
        report = viol.BiasReport("baseline", 1, 0, float("nan"), 0.0, 0.0, 0.0, 0.0, None, None, None, {})
        with pytest.raises(ValueError, match="JSON"):
            viol.write_suite(viol.SuiteResult(reports=(report,), failures=()), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_writes_every_file_and_creates_the_directory(self, tmp_path):
        paths = write_outputs(tmp_path / "a" / "b", {"x.json": b"{}\n", "y.csv": b"h\n"})
        assert paths == {"x.json": tmp_path / "a" / "b" / "x.json", "y.csv": tmp_path / "a" / "b" / "y.csv"}
        assert [p.read_bytes() for p in paths.values()] == [b"{}\n", b"h\n"]

    def test_an_out_dir_that_is_a_file_writes_nothing(self, tmp_path):
        (tmp_path / "f").write_bytes(b"keep")
        with pytest.raises(ConfigurationError, match=f"{tmp_path / 'f'} exists and is not a directory"):
            write_outputs(tmp_path / "f", {"x.json": b"{}\n"})
        assert (tmp_path / "f").read_bytes() == b"keep"

    def test_a_target_that_is_a_directory_writes_nothing(self, tmp_path):
        (tmp_path / "y.csv").mkdir()
        with pytest.raises(ConfigurationError, match=f"{tmp_path / 'y.csv'} is a directory"):
            write_outputs(tmp_path, {"x.json": b"{}\n", "y.csv": b"h\n"})
        assert [p.name for p in tmp_path.iterdir()] == ["y.csv"]

    def test_other_os_errors_name_the_path(self, tmp_path):
        (tmp_path / "f").write_bytes(b"keep")
        with pytest.raises(ConfigurationError, match=f"cannot write {tmp_path / 'f' / 'sub'}"):
            write_outputs(tmp_path / "f" / "sub", {"x.json": b"{}\n"})
