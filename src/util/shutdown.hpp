// Cooperative shutdown flag for long-running binaries (the recovery
// service and the sweep benches). install_shutdown_handler() routes
// SIGINT/SIGTERM to a process-wide atomic flag; loops poll
// shutdown_requested() at convenient boundaries (between sweep cells,
// between accepted connections) and flush whatever partial output they
// hold instead of dying mid-write.
//
// The handler only sets the flag — it is async-signal-safe and never
// allocates, logs or exits. A second signal while the flag is already
// set restores the default disposition, so a hung flush can still be
// interrupted the usual way.
#pragma once

namespace pm::util {

/// Installs SIGINT and SIGTERM handlers that set the shutdown flag.
/// Idempotent; call once from main before entering the long loop.
void install_shutdown_handler();

/// True once a shutdown signal was received.
bool shutdown_requested();

}  // namespace pm::util
