"""Host-time benchmark of the replay simulator (see README.md)."""
