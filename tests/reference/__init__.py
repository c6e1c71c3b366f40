"""Slow reference implementations the tests compare the package against.

Nothing here is imported by ``src/``: each module keeps the simple
version of a kernel whose production path was rewritten for speed, so a
differential test can assert the two agree.
"""
