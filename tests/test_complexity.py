"""How the work of a build grows with the page, counted, not timed.

Executed bytecodes repeat exactly from run to run once the code is warm,
where wall time on a shared host does not, so a ratio of counts can be
a bound.  The count is every opcode event of sys.settrace with
frame.f_trace_opcodes set (stdlib), work done inside C builtins not
included.

catalog_fig5(k) climbs a ladder of k - 1 type-III steps to a page of
rank 2k; no benchmark workload goes past rank 31, so these counts guard
its scale paths: the residuals read only where a handle changed
something, and the curve vectors a child inherits from its parent.
Each bound is the ratio per doubling of k on the day the test landed,
rounded up to two decimals (8 -> 16: 2.7313, 16 -> 32: 3.0946); a change
may lower a bound, never raise it.
"""

import sys

from realbook.catalog import catalog_fig5

FIG5_BUILD_RATIOS = {(8, 16): 2.74, (16, 32): 3.10}


def executed_opcodes(f):
    """The opcodes executed by f(), in every frame it enters."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            count += 1
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        f()
    finally:
        sys.settrace(old)
    return count


def test_fig5_build_opcodes_per_doubling():
    catalog_fig5(8)         # warm: imports and first-use caches outside the count
    counts = {k: executed_opcodes(lambda: catalog_fig5(k)) for k in (8, 16, 32)}
    assert executed_opcodes(lambda: catalog_fig5(8)) == counts[8]
    for (k, k2), bound in FIG5_BUILD_RATIOS.items():
        assert counts[k2] / counts[k] <= bound, (k, k2, counts)
