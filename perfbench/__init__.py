"""The setsmith benchmark; see README.md in this directory."""
