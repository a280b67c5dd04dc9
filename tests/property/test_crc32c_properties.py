"""Property tests: the store's checksum is the same on both of its steps.

:func:`repro.engine.store.format.crc32c` runs the CRC32C byte-table walk
in C (:func:`repro.core._ckernel.crc32c`) whenever the kernel library is
loaded, and in Python (``format._crc32c_py``) without it.  The C step must
equal the Python walk on every byte string up to 8 KiB, from every
register value, and when records are checksummed in chained parts.
Without the library these tests skip; the check value, the empty string
and the argument checks are pinned on both steps in
``tests/engine/test_engine_store.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernel
from repro.engine.store.format import _crc32c_py

needs_kernel = pytest.mark.skipif(not _ckernel.lib_available(),
                                  reason="needs the C kernel library")

registers = st.integers(0, 0xFFFFFFFF)


@needs_kernel
@given(data=st.binary(max_size=8192), crc=registers)
@settings(max_examples=200, deadline=None)
def test_c_step_equals_python_walk(data, crc):
    assert _ckernel.crc32c(data, crc) == _crc32c_py(data, crc)


@needs_kernel
@given(parts=st.lists(st.binary(max_size=2048), max_size=5), crc=registers)
@settings(max_examples=100, deadline=None)
def test_chained_c_steps_equal_one_python_walk(parts, crc):
    chained = crc
    for part in parts:
        chained = _ckernel.crc32c(part, chained)
    assert chained == _crc32c_py(b"".join(parts), crc)

