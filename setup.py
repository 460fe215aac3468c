"""Builds ryprep's optional compiled simulator kernel; the rest of the
package configuration is in pyproject.toml.

The extension is optional: without a working C compiler the build prints a
warning and succeeds, and ryprep runs on its NumPy kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "ryprep._simkernel",
            ["src/ryprep/_simkernel.c"],
            # -ffp-contract=off: no multiply-add is fused into an FMA, which
            # rounds once instead of twice, so the compiled kernel stays
            # bit-identical to the NumPy one on targets where FMA is part of
            # the baseline instruction set.
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
