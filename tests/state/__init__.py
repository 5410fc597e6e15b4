"""Tests for repro.state: checkpoint files, the completion journal,
graceful shutdown and the kill/``--resume`` drills."""
