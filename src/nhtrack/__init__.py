"""Trajectory tracking for nonholonomic systems by indirect shooting.

The modules are the API: import the one that holds a name, such as
`nhtrack.tracking` or `nhtrack.shooting`. Importing the package itself
loads none of them, and not numpy either.
"""

__version__ = "0.1.0"
