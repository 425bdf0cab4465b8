"""Unit tests for collection catalogs."""

import pytest

from repro.errors import ReproError
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.jsonlib.path import Path, parse_path


@pytest.fixture
def disk_catalog(tmp_path):
    base = tmp_path / "data"
    for collection, partitions in (("alpha", 2), ("beta", 1)):
        for partition in range(partitions):
            directory = base / collection / f"partition{partition}"
            directory.mkdir(parents=True)
            for index in range(2):
                (directory / f"f{index}.json").write_text(
                    f'{{"p": {partition}, "i": {index}}}', encoding="utf-8"
                )
    return CollectionCatalog(str(base))


class TestDiscovery:
    def test_discovers_collections(self, disk_catalog):
        assert disk_catalog.partition_count("/alpha") == 2
        assert disk_catalog.partition_count("/beta") == 1

    def test_name_normalization(self, disk_catalog):
        assert disk_catalog.partition_count("alpha") == 2
        assert disk_catalog.partition_count("/alpha/") == 2

    def test_unknown_collection(self, disk_catalog):
        with pytest.raises(ReproError):
            disk_catalog.partition_count("/gamma")

    def test_flat_directory_is_one_partition(self, tmp_path):
        flat = tmp_path / "flat"
        flat.mkdir()
        (flat / "a.json").write_text("1", encoding="utf-8")
        catalog = CollectionCatalog()
        catalog.register_directory("/flat", str(flat))
        assert catalog.partition_count("/flat") == 1

    def test_non_json_files_ignored(self, tmp_path):
        directory = tmp_path / "c" / "partition0"
        directory.mkdir(parents=True)
        (directory / "data.json").write_text("1", encoding="utf-8")
        (directory / "README.txt").write_text("not data", encoding="utf-8")
        catalog = CollectionCatalog(str(tmp_path))
        assert len(catalog.files("/c")) == 1


class TestReading:
    def test_read_collection_all(self, disk_catalog):
        items = disk_catalog.read_collection("/alpha")
        assert len(items) == 4

    def test_read_collection_partition(self, disk_catalog):
        items = disk_catalog.read_collection("/alpha", partition=1)
        assert all(item["p"] == 1 for item in items)

    def test_scan_with_path(self, disk_catalog):
        values = list(
            disk_catalog.scan_collection("/alpha", parse_path('("i")'))
        )
        assert sorted(values) == [0, 0, 1, 1]

    def test_read_document(self, disk_catalog):
        uri = disk_catalog.files("/beta")[0]
        assert disk_catalog.read_document(uri) == {"p": 0, "i": 0}

    def test_total_bytes(self, disk_catalog):
        assert disk_catalog.total_bytes("/alpha") > 0
        per_partition = disk_catalog.total_bytes("/alpha", 0)
        assert per_partition < disk_catalog.total_bytes("/alpha")


class TestInMemorySource:
    def test_partitions(self):
        source = InMemorySource(collections={"/c": [["1", "2"], ["3"]]})
        assert source.partition_count("/c") == 2
        assert source.read_collection("/c") == [1, 2, 3]
        assert source.read_collection("/c", partition=1) == [3]

    def test_scan(self):
        source = InMemorySource(collections={"/c": [['{"a": [1, 2]}']]})
        assert list(source.scan_collection("/c", parse_path('("a")()'))) == [1, 2]

    def test_documents(self):
        source = InMemorySource(documents={"d.json": '{"x": 1}'})
        assert source.read_document("d.json") == {"x": 1}
        source.add_document("e.json", "2")
        assert source.read_document("e.json") == 2

    def test_unknown_names(self):
        source = InMemorySource()
        with pytest.raises(ReproError):
            source.read_collection("/nope")
        with pytest.raises(ReproError):
            source.read_document("nope.json")

    def test_add_collection(self):
        source = InMemorySource()
        source.add_collection("/c", [["true"]])
        assert source.read_collection("/c") == [True]
