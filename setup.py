from setuptools import Extension, setup

# A plain C extension: building needs only a C compiler and the Python
# headers.  optional=True turns a failed build (no compiler, no headers)
# into a warning, and qfish then runs on the pure-Python kernels.
setup(ext_modules=[
    Extension("qfish._speedups", ["src/qfish/_speedups.c"], optional=True),
])
