"""Compiles `_tickloop.c` into the extension module `ccprobe.<name>`:

    python3 _tickloop_build.py <name>

`ccprobe.netsim` runs this script once, on the first import that finds no
module built from the current sources. The build happens in a temporary
directory next to this file, and the finished module is moved into the
package with `os.replace`, so no import ever sees a partly written file.
Modules built from earlier sources for the same Python are then removed.

The random streams (`tl_rng`) draw through the C distributions of the
numpy installed at build time, the static library numpy ships for this, so
their bytes follow that numpy's version and never load numpy's `Generator`.
"""

import os
import shutil
import sys
import sysconfig
import tempfile

import cffi
import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
# Python's double arithmetic, operation for operation: no FMA contraction
# and no fast-math
CFLAGS = ["-O3", "-ffp-contract=off", "-fno-fast-math"]
# numpy's headers, and its C distributions (`random_uniform`, the ziggurat
# of `random_standard_normal`, the bounded integers) with their tables
INCLUDE = numpy.get_include()
NPYRANDOM = os.path.join(os.path.dirname(numpy.__file__), "random", "lib")


def build(name: str) -> None:
    with open(os.path.join(HERE, "_tickloop.c")) as f:
        source = f.read()
    decls = source.split("/* cdef-begin */")[1].split("/* cdef-end */")[0]
    ffi = cffi.FFI()
    ffi.cdef(decls)
    ffi.set_source(f"ccprobe.{name}", source, extra_compile_args=CFLAGS,
                   include_dirs=[INCLUDE], library_dirs=[NPYRANDOM],
                   libraries=["npyrandom", "m"])
    tmp = tempfile.mkdtemp(prefix=".tickloop-build-", dir=HERE)
    try:
        path = ffi.compile(tmpdir=tmp)
        built = os.path.basename(path)
        os.replace(path, os.path.join(HERE, built))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    for fn in os.listdir(HERE):
        if fn.startswith("_tickloop_") and fn.endswith(suffix) and fn != built:
            os.remove(os.path.join(HERE, fn))


if __name__ == "__main__":
    build(sys.argv[1])
