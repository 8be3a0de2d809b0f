from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CompileError

# The compiled DP's speed otherwise follows where gcc happens to place its
# hot loop: an edit elsewhere in _speedups.c once moved pool_dp by 30 %.
ALIGN = "-falign-loops=64"


class AlignedBuildExt(build_ext):
    """build_ext that adds ALIGN for a 'unix' compiler (gcc, clang).  A
    compiler that rejects the flag builds the extension without it."""

    def build_extension(self, ext):
        if self.compiler.compiler_type == "unix":
            flags = ext.extra_compile_args
            ext.extra_compile_args = flags + [ALIGN]
            try:
                return super().build_extension(ext)
            except CompileError:
                self.warn(f"the compiler rejects {ALIGN}; building without it")
            finally:
                ext.extra_compile_args = flags
        return super().build_extension(ext)


# A plain C extension: building needs only a C compiler and the Python
# headers.  optional=True turns a failed build (no compiler, no headers)
# into a warning, and qfish then runs on the pure-Python kernels.
setup(
    ext_modules=[Extension("qfish._speedups", ["src/qfish/_speedups.c"], optional=True)],
    cmdclass={"build_ext": AlignedBuildExt},
)
