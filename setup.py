"""Builds the optional compiled arithmetic kernel ``brieskorn._speedups``.

The package works without it (pure-Python kernel): without Cython no
extension is declared, and a C build that fails only warns.
"""

from setuptools import Extension, setup


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    modules = cythonize(
        [Extension("brieskorn._speedups", ["src/brieskorn/_speedups.pyx"])],
        compiler_directives={"language_level": "3"},
    )
    for module in modules:
        # Set on cythonize's output, which need not carry its input's flags.
        module.optional = True
    return modules


setup(ext_modules=extensions())
