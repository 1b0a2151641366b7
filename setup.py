"""Legacy setup shim.

The execution environment has no network access and no ``wheel`` package,
so PEP 660 editable installs fail; this shim enables
``pip install -e . --no-use-pep517 --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Entanglement routing over quantum networks using GHZ measurements "
        "(ICDCS 2023 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native search kernel is compiled from source at import time.
    package_data={"repro.routing._native": ["kernel.c"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
)
