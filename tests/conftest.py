"""Checks that apply to every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # a test must leave no child process running or unreaped: path writing
    # forks writers, and every one of them is reaped before it returns
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid} was left running or unreaped (status {status})")
