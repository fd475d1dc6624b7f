"""Shared exception types."""


class WorkbenchError(Exception):
    """Base class for workbench-specific failures."""


class RangeError(WorkbenchError, ValueError):
    """An argument lies outside its documented domain."""


class SizeLimit(WorkbenchError, ValueError):
    """A request beyond the supported desk-scale size."""
