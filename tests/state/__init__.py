"""Tests for repro.state: the completion journal, graceful shutdown
and the kill/``--resume`` drills."""
