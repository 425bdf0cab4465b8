"""Scan-level on_malformed policies across the data layer.

Covers the raw-text scanner's resync (also over the empty path), both
catalogs, and the registration bugfixes (empty partitions, empty base
dirs).
"""

from itertools import chain

import pytest

from repro import JsonProcessor, RewriteConfig
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import FileScanError, JsonSyntaxError, ReproError
from repro.jsonlib.parser import parse
from repro.jsonlib.path import Path, parse_path
from repro.jsonlib.textscan import scan_text
from repro.resilience import DegradationReport

GOOD = '{"v": 1}\n{"v": 2}\n{"v": 3}\n'
BAD_MIDDLE = '{"v": 1}\n{"v": oops}\n{"v": 3}\n'


class TestScanTextSkipRecord:
    def test_fail_is_default(self):
        with pytest.raises(JsonSyntaxError):
            list(scan_text(BAD_MIDDLE, parse_path('("v")')))

    def test_skip_record_resyncs_at_newline(self):
        items = list(
            scan_text(BAD_MIDDLE, parse_path('("v")'), on_malformed="skip_record")
        )
        assert items == [1, 3]

    def test_skip_record_records_offsets(self):
        skips = []
        list(
            scan_text(
                BAD_MIDDLE,
                parse_path('("v")'),
                on_malformed="skip_record",
                recorder=lambda offset, message: skips.append((offset, message)),
            )
        )
        assert len(skips) == 1
        offset, message = skips[0]
        assert offset == BAD_MIDDLE.index('{"v": oops}')
        assert "oops"[0] in message  # mentions the unexpected character

    def test_no_trailing_newline(self):
        text = '{"v": 1}\n{"v":'
        items = list(
            scan_text(text, parse_path('("v")'), on_malformed="skip_record")
        )
        assert items == [1]

    def test_garbage_only(self):
        items = list(scan_text("!!!\n???", Path(), on_malformed="skip_record"))
        assert items == []

    def test_clean_text_unaffected(self):
        assert list(
            scan_text(GOOD, parse_path('("v")'), on_malformed="skip_record")
        ) == list(scan_text(GOOD, parse_path('("v")')))


class TestParseManyResilient:
    """The empty path decodes every top-level value whole, under the
    same malformed-input policy as any projection."""

    def test_equivalent_on_clean_input(self):
        items = list(scan_text(GOOD, Path(), on_malformed="skip_record"))
        assert items == [{"v": 1}, {"v": 2}, {"v": 3}]

    def test_skips_malformed_values(self):
        items = list(scan_text(BAD_MIDDLE, Path(), on_malformed="skip_record"))
        assert items == [{"v": 1}, {"v": 3}]


@pytest.fixture
def faulty_dir(tmp_path):
    base = tmp_path / "data"
    part = base / "events" / "partition0"
    part.mkdir(parents=True)
    (part / "good.json").write_text(GOOD, encoding="utf-8")
    (part / "bad.json").write_text(BAD_MIDDLE, encoding="utf-8")
    return base


class TestCollectionCatalogPolicies:
    def test_fail_wraps_with_file_path(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir))
        with pytest.raises(FileScanError) as excinfo:
            list(catalog.scan_collection("/events", parse_path('("v")')))
        assert excinfo.value.file_path.endswith("bad.json")
        assert isinstance(excinfo.value.__cause__, JsonSyntaxError)

    def test_read_collection_fail_wraps_with_file_path(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir))
        with pytest.raises(FileScanError) as excinfo:
            catalog.read_collection("/events")
        assert excinfo.value.file_path.endswith("bad.json")

    def test_skip_record_survives_and_records(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir), on_malformed="skip_record")
        report = DegradationReport()
        items = list(
            catalog.scan_collection("/events", parse_path('("v")'), report=report)
        )
        assert items == [1, 3, 1, 2, 3]  # bad.json sorts before good.json
        assert len(report.skipped_records) == 1
        assert report.skipped_records[0].source.endswith("bad.json")
        assert report.is_partial

    def test_skip_file_drops_whole_file(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir), on_malformed="skip_file")
        report = DegradationReport()
        items = list(
            catalog.scan_collection("/events", parse_path('("v")'), report=report)
        )
        # bad.json (entirely dropped) sorts before good.json
        assert items == [1, 2, 3]
        assert len(report.skipped_files) == 1
        assert report.skipped_files[0].file_path.endswith("bad.json")

    def test_read_collection_skip_record(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir), on_malformed="skip_record")
        items = catalog.read_collection("/events")
        assert {"v": 2} in items and len(items) == 5

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            CollectionCatalog(on_malformed="explode")

    def test_unattached_skips_do_not_crash(self, faulty_dir):
        catalog = CollectionCatalog(str(faulty_dir), on_malformed="skip_record")
        items = list(catalog.scan_collection("/events", parse_path('("v")')))
        assert items  # skips simply go unrecorded


class TestRegistrationValidation:
    def test_empty_partition_dir_raises(self, tmp_path):
        empty = tmp_path / "c" / "partition0"
        empty.mkdir(parents=True)
        catalog = CollectionCatalog()
        with pytest.raises(ReproError, match="partition0"):
            catalog.register_directory("/c", str(tmp_path / "c"))

    def test_one_empty_among_full_partitions_raises(self, tmp_path):
        base = tmp_path / "c"
        (base / "partition0").mkdir(parents=True)
        (base / "partition0" / "a.json").write_text("1", encoding="utf-8")
        (base / "partition1").mkdir()
        catalog = CollectionCatalog()
        with pytest.raises(ReproError, match="partition1"):
            catalog.register_directory("/c", str(base))

    def test_flat_dir_without_json_raises(self, tmp_path):
        flat = tmp_path / "flat"
        flat.mkdir()
        (flat / "README.txt").write_text("no data", encoding="utf-8")
        catalog = CollectionCatalog()
        with pytest.raises(ReproError, match="flat"):
            catalog.register_directory("/flat", str(flat))

    def test_discover_empty_base_dir_raises(self, tmp_path):
        with pytest.raises(ReproError, match=str(tmp_path)):
            CollectionCatalog(str(tmp_path))


class TestInMemorySourcePolicies:
    def _source(self, on_malformed):
        return InMemorySource(
            {"/events": [[GOOD], [BAD_MIDDLE]]}, on_malformed=on_malformed
        )

    def test_fail_wraps_with_label(self):
        source = self._source("fail")
        with pytest.raises(FileScanError) as excinfo:
            list(source.scan_collection("/events", parse_path('("v")')))
        assert "partition 1" in str(excinfo.value)

    def test_skip_record(self):
        source = self._source("skip_record")
        report = DegradationReport()
        items = list(
            source.scan_collection("/events", parse_path('("v")'), report=report)
        )
        assert items == [1, 2, 3, 1, 3]
        assert len(report.skipped_records) == 1
        assert "partition 1" in report.skipped_records[0].source

    def test_skip_file(self):
        source = self._source("skip_file")
        report = DegradationReport()
        items = list(
            source.scan_collection("/events", parse_path('("v")'), report=report)
        )
        assert items == [1, 2, 3]
        assert len(report.skipped_files) == 1

    def test_read_collection_policies(self):
        assert self._source("skip_record").read_collection("/events") == [
            {"v": 1},
            {"v": 2},
            {"v": 3},
            {"v": 1},
            {"v": 3},
        ]
        assert self._source("skip_file").read_collection("/events") == [
            {"v": 1},
            {"v": 2},
            {"v": 3},
        ]



class TestReportPerRead:
    """The report is an argument of each read, not state of the source:
    two reads of one catalog advanced alternately in one thread each
    record exactly their own skips on their own report."""

    #: collection -> (its one file's text, the malformed record in it)
    TEXTS = {
        "/a": (BAD_MIDDLE, '{"v": oops}'),
        "/b": ('{"v": nope}\n{"v": 4}\n{"v": 5}\n', '{"v": nope}'),
    }

    @pytest.mark.parametrize("cached", [False, True])
    def test_interleaved_reads_keep_their_skips_apart(self, tmp_path, cached):
        source = CollectionCatalog(
            on_malformed="skip_record",
            segment_cache_dir=str(tmp_path / "cache") if cached else "",
        )
        files = {}
        for name, (text, _bad) in self.TEXTS.items():
            directory = tmp_path / name.strip("/")
            directory.mkdir()
            files[name] = directory / "t.json"
            files[name].write_text(text, encoding="utf-8")
            source.register_directory(name, str(directory))
        reports = {name: DegradationReport() for name in self.TEXTS}
        streams = {
            name: chain.from_iterable(
                items
                for items, _sizes in source.scan_units(
                    name, parse_path('("v")'), report=report
                )
            )
            for name, report in reports.items()
        }
        pulled = {name: [] for name in self.TEXTS}
        while streams:
            for name in list(streams):
                item = next(streams[name], None)
                if item is None:
                    del streams[name]
                else:
                    pulled[name].append(item)
        assert pulled == {"/a": [1, 3], "/b": [4, 5]}
        for name, (text, bad) in self.TEXTS.items():
            assert [
                (skip.source, skip.offset)
                for skip in reports[name].skipped_records
            ] == [(str(files[name]), text.index(bad))]


# Deeper than the interpreter recurses.
DEEP = '{"v": ' + "[" * 5000 + "]" * 5000 + "}"
# Longer than sys.get_int_max_str_digits(), so int() refuses it.
LONG_INT = '{"v": ' + "7" * 5000 + "}"


class TestHostileRecords:
    """Records that are valid JSON but hostile to CPython (nesting past
    the recursion limit, an integer literal past the int/str digit
    limit) are malformed records like any other: a ReproError under
    ``fail``, skipped and reported under the skip policies, in every
    scan mode and under the un-rewritten plan, whose ``read_collection``
    scans the empty path.  They used to escape as RecursionError /
    ValueError."""

    #: the two scan modes, plus the plan that reads without a DATASCAN
    MODES = ["ondemand", "text", "unrewritten"]

    QUERY = 'for $r in collection("/events") return $r("v")'

    @pytest.fixture(params=["deep", "long-int"])
    def hostile(self, request, tmp_path):
        record = DEEP if request.param == "deep" else LONG_INT
        part = tmp_path / "events" / "partition0"
        part.mkdir(parents=True)
        (part / "a.json").write_text(
            f'{{"v": 1}}\n{record}\n{{"v": 3}}\n', encoding="utf-8"
        )
        (part / "b.json").write_text('{"v": 4}\n', encoding="utf-8")
        message = (
            "maximum nesting depth exceeded" if request.param == "deep"
            else "integer literal of 5000 characters is too long"
        )
        return str(tmp_path), message

    def run(self, base_dir, mode, on_malformed):
        how = (
            {"rewrite": RewriteConfig.none()} if mode == "unrewritten"
            else {"scan_mode": mode}
        )
        with JsonProcessor.from_directory(
            base_dir, on_malformed=on_malformed, **how
        ) as processor:
            return processor.execute(self.QUERY)

    @pytest.mark.parametrize("mode", MODES)
    def test_fail_raises_a_repro_error(self, hostile, mode):
        base_dir, message = hostile
        with pytest.raises(ReproError, match=message) as excinfo:
            self.run(base_dir, mode, "fail")
        assert "a.json" in str(excinfo.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_skip_record_keeps_its_neighbours(self, hostile, mode):
        base_dir, message = hostile
        result = self.run(base_dir, mode, "skip_record")
        assert result.items == [1, 3, 4]
        assert result.is_partial
        (skipped,) = result.degradation.skipped_records
        assert skipped.source.endswith("a.json")
        assert skipped.offset == len('{"v": 1}\n')
        assert message in skipped.message

    @pytest.mark.parametrize("mode", MODES)
    def test_skip_file_keeps_the_other_file(self, hostile, mode):
        base_dir, message = hostile
        result = self.run(base_dir, mode, "skip_file")
        assert result.items == [4]
        assert result.is_partial
        (skipped,) = result.degradation.skipped_files
        assert skipped.file_path.endswith("a.json")
        assert message in skipped.message

    def test_parse_raises_a_syntax_error_for_a_long_integer(self):
        with pytest.raises(JsonSyntaxError, match="too long") as excinfo:
            parse("[1, " + "7" * 5000 + "]")
        assert excinfo.value.offset == 4
