"""Legacy shim for the offline install: ``python setup.py develop``.

Without the ``wheel`` package, ``pip install -e .`` fails offline
(``invalid command 'bdist_wheel'``); ``setup.py develop`` needs only
setuptools.  See README's Install section."""
from setuptools import setup

setup()
