"""Micro-benchmarks of the core components (proper pytest-benchmark
timing over repeated rounds): the streaming parser, the raw-text
projection, the compiler, and end-to-end query execution.
"""

import pytest

from repro.algebra.rules import RewriteConfig
from repro.bench import queries as Q
from repro.bench import workloads as W
from repro.compiler.pipeline import compile_query
from repro.jsonlib.parser import parse_many
from repro.jsonlib.path import parse_path
from repro.jsonlib.textscan import scan_text
from repro.processor import JsonProcessor


@pytest.fixture(scope="module")
def sensor_text():
    workload = W.sensor_workload(partitions=1, bytes_per_partition=100_000)
    path = workload.catalog.files("/sensors")[0]
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def sensor_catalog():
    return W.sensor_workload(partitions=1, bytes_per_partition=100_000).catalog


DATE_PATH = parse_path('("root")()("results")()("date")')


def test_bench_streaming_parse(benchmark, sensor_text):
    benchmark(lambda: parse_many(sensor_text))


def test_bench_text_projection(benchmark, sensor_text):
    benchmark(lambda: list(scan_text(sensor_text, DATE_PATH)))


def test_bench_compile_q2(benchmark):
    benchmark(lambda: compile_query(Q.q2()))


def test_bench_q0b_optimized(benchmark, sensor_catalog):
    processor = JsonProcessor(sensor_catalog)
    benchmark(lambda: processor.evaluate(Q.q0b()))


def test_bench_q1_optimized(benchmark, sensor_catalog):
    processor = JsonProcessor(sensor_catalog)
    benchmark(lambda: processor.evaluate(Q.q1()))


def test_bench_q1_naive(benchmark, sensor_catalog):
    processor = JsonProcessor(sensor_catalog, rewrite=RewriteConfig.none())
    benchmark(lambda: processor.evaluate(Q.q1()))
