"""`python -m pstnet ...` runs the command-line front door."""

from .cli import main

main()
