"""Give any Python the builtin ``sum()`` of Python 3.12.

From 3.12 on, ``sum()`` adds exact floats with Neumaier compensation, so
a float sum can differ in its last digit from 3.10/3.11, which add left
to right.  Put this directory on ``PYTHONPATH``
and ``site`` imports this module at start-up, replacing
``builtins.sum`` with a pure-Python copy of 3.12's algorithm (the C fast
paths of ``builtin_sum_impl``, including the C ``long`` range of the
integer path).  ``tests/test_sum312.py`` runs the bit-identity gates
under it.
"""

import builtins
import math

_LONG_MIN, _LONG_MAX = -(2 ** 63), 2 ** 63 - 1


def sum(iterable, /, start=0):
    if isinstance(start, str):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    if isinstance(start, bytes):
        raise TypeError("sum() can't sum bytes [use b''.join(seq) instead]")
    if isinstance(start, bytearray):
        raise TypeError("sum() can't sum bytearray [use b''.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if (type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX
                    and _LONG_MIN <= result + item <= _LONG_MAX):
                result += int(item)
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(int(item))  # not compensated
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


builtins.sum = sum
