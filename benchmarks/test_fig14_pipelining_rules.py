"""Figure 14: execution time before/after the Pipelining Rules.

Paper shape: the drastic one — about two orders of magnitude on the
authors' 8 GB-heap testbed, driven by no longer buffering whole
documents/collections.  At our MB scale the Python runtime absorbs small
materializations, so the reproduction asserts the *mechanism*:

- the join query Q2 speeds up by a large factor: every tuple of its
  naive form binds the whole collection sequence, which the tuples share
  rather than copy; the memory model charges those bytes per tuple (a
  Hyracks frame of serialized tuples would hold them), and most of the
  naive time is the engine re-measuring that one shared sequence for
  each tuple it charges, and
- every query's materialized-memory footprint collapses (whole
  collection -> at most streaming state).
"""

from repro.bench.experiments import fig14


def test_fig14_pipelining_rules(run_once):
    result = run_once(fig14)
    q2_speedup = result.cell("Q2", "speedup")
    assert q2_speedup >= 3, f"Q2 pipelining speedup only {q2_speedup}"
    for row in result.rows:
        query, before, after = row[0], row[1], row[2]
        assert after <= before * 2.0, (
            f"{query}: pipelining regressed {before:.3f}s -> {after:.3f}s"
        )
        before_mem, after_mem = row[4], row[5]
        assert before_mem > after_mem * 2, (
            f"{query}: expected a big memory drop, got "
            f"{before_mem}B -> {after_mem}B"
        )
