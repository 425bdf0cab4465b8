"""One read per self-join: when both inputs of a join read the same
collection under the same projection, phase 1 of the exchange scans each
partition once and hands every frame to the left input, then to the right
(``operators.keyed_inputs``).

The reference for everything a shared read shows is the same texts
registered a second time, as ``/c2``, and joined with ``/c``: two reads,
the left drained first.  The two runs must agree in items, scan and
exchange accounting, memory peak, counter profile and errors.
"""

import dataclasses
import json
import os

import pytest

import repro.data.catalog as catalog
import repro.hyracks.operators as physical
from repro import (
    CollectionCatalog,
    JsonProcessor,
    SensorDataConfig,
    write_sensor_collection,
)
from repro.bench.queries import q2
from repro.errors import FileScanError, ReproError

BACKENDS = ["sequential", "process"]

SELF_JOIN = (
    'count(for $a in collection("/c")() for $b in collection("/c")() '
    'where $a("k") eq $b("k") and $a("t") eq "a" and $b("t") eq "b" '
    'return $b("v") - $a("v"))'
)
BARE_SELF_JOIN = (
    'for $a in collection("/c")() for $b in collection("/c")() '
    'where $a("k") eq $b("k") return $a("v") + $b("v")'
)
#: records per line: each line is one array, which ``()`` unnests in
#: the scan, so an input is a DATASCAN under its SELECT run
PER_LINE = 10


def reference(query: str) -> str:
    """*query* with its right input reading ``/c2``, the same texts."""
    head, tail = query.split('for $b in collection("/c")', 1)
    return head + 'for $b in collection("/c2")' + tail


def row(partition: int, index: int) -> dict:
    record = {"k": index % 11, "t": "ab"[index % 2], "v": partition * 10_000 + index}
    if index % 37 == 0:
        del record["k"]  # no key: dropped on both inputs
    return record


def write_collection(base, partitions=2, files=2, rows=300, record=row, broken=()):
    """``<base>/c/partition<p>/f<i>.json``: *rows* records a file, made by
    *record* from the partition and the record's index in it, the middle
    line of each ``(partition, file)`` in *broken* malformed."""
    directory = os.path.join(base, "c")
    for p in range(partitions):
        os.makedirs(os.path.join(directory, f"partition{p}"))
        for f in range(files):
            records = [record(p, f * rows + i) for i in range(rows)]
            lines = [
                json.dumps(records[i:i + PER_LINE]) for i in range(0, rows, PER_LINE)
            ]
            if (p, f) in broken:
                lines[len(lines) // 2] = '[{"k": oops}]'
            path = os.path.join(directory, f"partition{p}", f"f{f}.json")
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
    return directory


def make_catalog(directory, **options):
    """``/c`` and ``/c2`` over *directory*, with no segment cache unless
    *options* give one: a cache from the environment would serve
    ``/c2`` what ``/c`` stored, and a self-join a unit again from the
    segment its left read stored."""
    options.setdefault("segment_cache_dir", "")
    source = CollectionCatalog(stats_sample=10_000, **options)
    source.register_directory("/c", directory)
    source.register_directory("/c2", directory)
    return source


def observed(result) -> dict:
    """Everything the two runs must agree on, the collection named alike."""
    stats = dataclasses.asdict(result.stats)
    shown = {
        "items": result.items,
        "stats": {
            name: stats[name]
            for name in (
                "items_scanned", "scanned_item_bytes",
                "exchange_tuples", "exchange_bytes",
            )
        },
        "peak_memory_bytes": result.peak_memory_bytes,
        "degradation": result.degradation.to_dict(),
        "profile": result.profile.to_dict(),
    }
    return json.loads(json.dumps(shown, default=str).replace("/c2", "/c"))


@pytest.fixture
def reads(monkeypatch, tmp_path):
    """Log every unit a catalog reads (also in pool workers: patched
    before a pool forks); returns a function taking the log, sorted."""
    log = tmp_path / "reads.log"

    def spied(name):
        real = getattr(catalog, name)

        def spy(source, source_id, *args):
            with open(log, "a") as handle:
                handle.write(source_id + "\n")
            return real(source, source_id, *args)

        monkeypatch.setattr(catalog, name, spy)

    spied("_scan_plain")
    spied("_scan_cached")

    def take():
        units = sorted(log.read_text().split()) if log.exists() else []
        log.write_text("")
        return units

    return take


def unit_files(directory):
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(directory)
        for name in names
        if name.endswith(".json")
    )


class TestOneRead:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_q2_reads_each_unit_once(self, backend, reads, tmp_path):
        base = tmp_path / "data"
        write_sensor_collection(
            str(base), "/sensors", 2, 16 * 1024,
            SensorDataConfig(seed=5, stations=20, target_file_bytes=8 * 1024),
        )
        with JsonProcessor.from_directory(
            str(base), backend=backend, max_workers=2, segment_cache_dir=""
        ) as processor:
            result = processor.execute(q2())
        assert result.strategy == "hash-join"
        files = unit_files(base / "sensors")
        assert len(files) > 2
        assert reads() == files

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("differ", ["collection", "projection"])
    def test_inputs_that_differ_read_twice(self, backend, differ, reads, tmp_path):
        directory = write_collection(str(tmp_path))
        query = SELF_JOIN
        if differ == "collection":
            query = reference(query)
        else:  # the right input projects each record's keys
            query = (
                'count(for $a in collection("/c")() for $b in collection("/c")()("k") '
                'where $a("k") eq $b return 1)'
            )
        with JsonProcessor(
            source=make_catalog(directory), backend=backend, max_workers=2
        ) as processor:
            result = processor.execute(query)
        assert result.strategy == "hash-join"
        assert reads() == sorted(unit_files(directory) * 2)


class TestAccounting:
    """The shared read shows what two reads showed."""

    def run(self, directory, query, backend, **options):
        with JsonProcessor(
            source=make_catalog(directory, **options),
            backend=backend,
            max_workers=2,
        ) as processor:
            return processor.execute(query, profile="counter")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", [SELF_JOIN, BARE_SELF_JOIN])
    @pytest.mark.parametrize("scan_mode", ["ondemand", "text"])
    def test_without_a_cache(self, backend, query, scan_mode, tmp_path):
        directory = write_collection(str(tmp_path))
        shared = self.run(directory, query, backend, scan_mode=scan_mode)
        unshared = self.run(directory, reference(query), backend, scan_mode=scan_mode)
        assert observed(shared) == observed(unshared)
        (scan, _) = shared.profile.find("DATASCAN")
        assert scan.counters["projection_hits"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", [SELF_JOIN, BARE_SELF_JOIN])
    def test_with_a_segment_cache(self, backend, query, tmp_path):
        directory = write_collection(str(tmp_path / "data"))
        runs = {}
        for name, text in (("shared", query), ("unshared", reference(query))):
            cache = tmp_path / f"cache-{name}"
            cold = self.run(directory, text, backend, segment_cache_dir=str(cache))
            warm = self.run(directory, text, backend, segment_cache_dir=str(cache))
            # one corrupt segment: a miss and a cold read for the left
            # input, a hit on what it stored again for the right one
            segment = sorted(
                os.path.join(root, file)
                for root, _, files in os.walk(cache)
                for file in files
                if b"partition1/f0.json" in open(os.path.join(root, file), "rb").read()
            )[0]
            with open(segment, "r+b") as handle:
                handle.seek(-3, 2)
                byte = handle.read(1)
                handle.seek(-3, 2)
                handle.write(bytes([byte[0] ^ 0xFF]))
            corrupt = self.run(directory, text, backend, segment_cache_dir=str(cache))
            runs[name] = [observed(cold), observed(warm), observed(corrupt)]
        assert runs["shared"] == runs["unshared"]
        cold, warm, corrupt = runs["shared"]
        counters = [
            [scan["counters"] for scan in find(run["profile"]["plan"], "DATASCAN")]
            for run in (cold, warm, corrupt)
        ]
        assert [c.get("cache_misses", 0) for c in counters[0]] == [4, 0]
        assert [c.get("cache_hits", 0) for c in counters[0]] == [0, 4]
        assert [c.get("cache_hits", 0) for c in counters[1]] == [4, 4]
        assert [c.get("cache_corrupt", 0) for c in counters[2]] == [1, 0]
        assert [c.get("cache_hits", 0) for c in counters[2]] == [3, 4]
        assert corrupt["degradation"]["cache_events"][0]["kind"] == "corrupt"


def find(node: dict, operator: str) -> list:
    found = [node] if node["operator"] == operator else []
    for child in node["children"]:
        found += find(child, operator)
    return found


class TestErrors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_later_left_error_wins_over_a_right_error_in_frame_one(
        self, backend, tmp_path
    ):
        # $b("v") lt "x" raises on the right input's first frame,
        # $a("w") lt 5 only on the left input's record 400, in its second.
        def record(partition, index):
            return {**row(partition, index), "w": "late" if index == 400 else index}

        directory = write_collection(str(tmp_path), 1, 1, 600, record)
        query = (
            'count(for $a in collection("/c")() for $b in collection("/c")() '
            'where $a("k") eq $b("k") and $a("w") lt 5 and $b("v") lt "x" '
            "return 1)"
        )
        messages = []
        for text in (query, reference(query)):
            with JsonProcessor(
                source=make_catalog(directory), backend=backend, max_workers=2
            ) as processor:
                with pytest.raises(ReproError) as info:
                    processor.evaluate(text)
            messages.append(str(info.value).replace(", '/c2'", ""))
        assert "cannot compare string with number" in messages[0]
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_malformed_record_fails_as_two_reads_fail(self, backend, tmp_path):
        directory = write_collection(str(tmp_path), broken=[(1, 0)])
        failures = []
        for text in (SELF_JOIN, reference(SELF_JOIN)):
            with JsonProcessor(
                source=make_catalog(directory), backend=backend, max_workers=2
            ) as processor:
                with pytest.raises(ReproError) as info:
                    processor.evaluate(text)
            cause = info.value
            while not isinstance(cause, FileScanError):
                cause = cause.__cause__
            failures.append(
                (str(info.value).replace(", '/c2'", ""), str(cause), cause.file_path)
            )
        assert failures[0] == failures[1]
        assert failures[0][2].endswith(os.path.join("partition1", "f0.json"))


def test_the_right_input_lags_by_at_most_one_frame(monkeypatch, tmp_path):
    frames = []
    real = physical._Scan.frame

    def frame(self, items, sizes, started):
        frames.append(self.op.variable)
        return real(self, items, sizes, started)

    monkeypatch.setattr(physical._Scan, "frame", frame)
    directory = write_collection(str(tmp_path), 1, 1, 5_000)
    # in this process, so the spy sees the frames
    processor = JsonProcessor(source=make_catalog(directory), backend="sequential")
    assert processor.execute(SELF_JOIN).strategy == "hash-join"
    left, right = dict.fromkeys(frames)  # the left input's scan is fed first
    assert frames.count(left) == frames.count(right) > 5_000 // 256
    for taken in range(len(frames) + 1):
        ahead = frames[:taken].count(left) - frames[:taken].count(right)
        assert ahead in (0, 1)


class TestOtherPaths:
    def answers(self, directory, query, backend):
        with JsonProcessor(
            source=make_catalog(directory), backend=backend, max_workers=2,
            cost=True,
        ) as processor:
            plan = processor.explain(query)
            return plan, processor.execute(query, profile="counter")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_self_join_built_on_the_left(self, backend, tmp_path):
        directory = write_collection(str(tmp_path))
        query = (
            'for $a in collection("/c")() for $b in collection("/c")() '
            'where $a("k") eq $b("k") and $a("v") eq 10007 return $b("v")'
        )
        plan, shared = self.answers(directory, query, backend)
        assert "[build=left]" in plan
        _, unshared = self.answers(directory, reference(query), backend)
        assert shared.items and observed(shared) == observed(unshared)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_self_join_with_hot_keys(self, backend, tmp_path):
        def record(partition, index):  # a third of the keys are 0
            hot = {"k": 0} if index % 3 == 0 else {}
            return {**row(partition, index), **hot}

        directory = write_collection(str(tmp_path), record=record)
        _, shared = self.answers(directory, SELF_JOIN, backend)
        _, unshared = self.answers(directory, reference(SELF_JOIN), backend)
        assert observed(shared) == observed(unshared)
