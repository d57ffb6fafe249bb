// Cooperative shutdown flag for the one binary that runs until it is
// stopped, the recovery service (examples/pm_server).
// install_shutdown_handler() routes SIGINT/SIGTERM to a process-wide
// atomic flag; svc::Server::run_until_shutdown() polls
// shutdown_requested() and then drains its connections instead of dying
// mid-reply. The sweep benches finish in well under a second and take
// no handler.
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
