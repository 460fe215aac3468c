"""Builds ryprep's optional compiled simulator kernel; the rest of the
package configuration is in pyproject.toml.

The extension is optional: without a working C compiler the build prints a
warning and succeeds, and ryprep runs on its NumPy kernel.
"""

from setuptools import Extension, setup

# -ffp-contract=off: no multiply-add is fused into an FMA, which rounds once
# instead of twice, so the compiled kernel stays bit-identical to the NumPy
# one on targets where FMA is part of the baseline instruction set.
COMPILE_ARGS = ["-O2", "-ffp-contract=off"]

# Guarded, so that the tests can read COMPILE_ARGS without running setup().
if __name__ == "__main__":
    setup(
        ext_modules=[
            Extension(
                "ryprep._simkernel",
                ["src/ryprep/_simkernel.c"],
                extra_compile_args=COMPILE_ARGS,
                optional=True,
            )
        ]
    )
