"""Build script: optionally compiles the simplex kernel with Cython.

credalkit/_backend.py is plain Python and is the only kernel source. When
Cython is importable, the same file is also compiled to an extension
module, which Python then loads in place of the .py file; without Cython,
or if the compile fails, the package installs and runs as pure Python.
"""

from setuptools import Extension, setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "credalkit._backend",
                ["src/credalkit/_backend.py"],
                optional=True,
            )
        ],
        language_level=3,
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
