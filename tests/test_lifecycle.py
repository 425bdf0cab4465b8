"""Processor/backend lifecycle: close is idempotent and closing is final."""

import json

import pytest

from repro.compiler.pipeline import compile_query
from repro.algebra.rules import RewriteConfig
from repro.data.catalog import InMemorySource
from repro.errors import ProcessorClosedError, ReproError
from repro.hyracks.executor import PartitionedExecutor
from repro.processor import JsonProcessor


def make_source():
    rows = [{"v": i} for i in range(10)]
    text = json.dumps({"root": [{"results": rows}]})
    return InMemorySource(collections={"/s": [[text], [text]]})


COUNT_QUERY = (
    'count(for $r in collection("/s")("root")()("results")() return $r)'
)


class TestProcessorLifecycle:
    def test_double_close_is_a_noop(self):
        processor = JsonProcessor(make_source())
        processor.close()
        processor.close()

    def test_execute_after_close_raises(self):
        processor = JsonProcessor(make_source())
        processor.close()
        with pytest.raises(ProcessorClosedError) as exc_info:
            processor.execute(COUNT_QUERY)
        assert "processor" in str(exc_info.value)
        with pytest.raises(ProcessorClosedError):
            processor.evaluate(COUNT_QUERY)

    @pytest.mark.parametrize("backend", ["process"])
    def test_exception_inside_with_block_shuts_pools_down(self, backend):
        with pytest.raises(ReproError):
            with JsonProcessor(
                make_source(), backend=backend, max_workers=2
            ) as processor:
                processor.evaluate(COUNT_QUERY)  # pool is now warm
                held = processor._executor._backend
                assert held._pool is not None
                processor.evaluate('count(collection("/missing")())')
        # __exit__ ran close() even though the block unwound via the error
        assert held._pool is None
        with pytest.raises(ProcessorClosedError):
            processor.evaluate(COUNT_QUERY)

    def test_close_after_error_keeps_working_until_closed(self):
        processor = JsonProcessor(make_source())
        with pytest.raises(ReproError):
            processor.evaluate('count(collection("/missing")())')
        # a failed query does not poison the processor
        assert processor.evaluate(COUNT_QUERY) == [20]
        processor.close()


class TestExecutorLifecycle:
    def test_run_after_close_raises(self):
        executor = PartitionedExecutor(make_source())
        plan = compile_query(COUNT_QUERY, RewriteConfig.all()).plan
        assert executor.run(plan).items == [20]
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(ProcessorClosedError) as exc_info:
            executor.run(plan)
        assert "executor" in str(exc_info.value)
