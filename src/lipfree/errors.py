"""Common exception base for the library."""


class Error(Exception):
    """Base class for all lipfree errors.

    Subclasses live next to the code that raises them; they all expose a
    ``payload()`` dict so the CLI can emit machine-readable error bodies.
    """

    def payload(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class InternalError(Error):
    """A step that cannot fail on valid input failed: a library fault."""
