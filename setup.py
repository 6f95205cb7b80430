"""Packaging for the src/ layout.

``pip install -e .`` works on any environment with ``wheel`` available
(CI does this).  The offline development image ships setuptools without
``wheel``, where ``python setup.py develop`` is the editable fallback —
both paths read the ``package_dir``/``find_packages`` declaration below.
All metadata lives here; there is deliberately no ``pyproject.toml`` so
the wheel-less legacy path keeps working.
"""

from setuptools import find_packages, setup

setup(
    name="repro-rps",
    version="0.1.0",
    description=(
        "Reproduction of an RDF peer system with dictionary-encoded "
        "storage, GPQ evaluation, TGD chase and certain answers"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    extras_require={
        "test": ["pytest"],
        "dev": ["pytest", "ruff"],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "Operating System :: OS Independent",
        "Programming Language :: Python",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.9",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Database :: Database Engines/Servers",
    ],
)
