/**
 * @file
 * Campaign worker: connects to a coordinator, receives the campaign
 * spec, and executes leased trial ranges through a CampaignSession,
 * streaming each completed trial's counter deltas back in trial order.
 *
 * One thread (plus the session's fork pool when jobs > 1): all socket
 * I/O runs on the session thread through one non-blocking pump, which
 * is the session's abort poll (CampaignConfig::abortCheck) — called
 * per gap, between trials and through warmup — and runs after each
 * poll(2) wake between leases. It queues incoming frames (a Shutdown
 * latches the process shutdown flag at once), times out a stalled
 * partial frame, and heartbeats only when nothing has been sent for
 * heartbeatMs: Trial frames already prove liveness.
 *
 * Connection loss is not fatal: EOF, a corrupt/CRC-failed stream, a
 * stalled partial frame or a failed send stop only the current range,
 * and the worker re-dials with exponentially backed-off,
 * decorrelated-jitter delays. The session survives: a byte-equal Spec
 * keeps it for later leases, and a lease behind it or after a range
 * that stopped early gets a fresh one. Every trial is a pure
 * function of (spec, trial index), so re-executing a lease after a
 * reconnect is harmless — the coordinator's merge discards duplicates.
 * Only a Shutdown frame, a local signal, or an explicit version
 * rejection (HelloAck) ends the worker.
 */

#ifndef FH_DIST_WORKER_HH
#define FH_DIST_WORKER_HH

#include "dist/wire.hh"

namespace fh::dist
{

struct WorkerOptions
{
    Endpoint endpoint;
    /** Host threads for the per-trial forks (CampaignConfig::threads);
     *  0 = one per hardware thread. */
    unsigned jobs = 1;
    /** Send a Heartbeat once the connection has carried nothing for
     *  this long; busy workers' Trial frames make most unnecessary. */
    u64 heartbeatMs = 300;

    /**
     * How long a partial frame may sit in the receive buffer without
     * completing before the connection is declared corrupt. Guards
     * against a flipped *length* field on the coordinator->worker
     * path: the mis-sized frame never completes, yet the worker's own
     * heartbeats would keep its lease alive forever — a livelock no
     * timeout on the coordinator side can see.
     */
    u64 stallTimeoutMs = 2000;

    /** Consecutive failed (re)connection attempts before giving up;
     *  the counter resets whenever a connection makes progress (a
     *  spec or lease arrives). */
    unsigned maxReconnects = 8;
    /** Decorrelated-jitter backoff: sleep ~ uniform(base, prev*3),
     *  capped. */
    u64 backoffBaseMs = 50;
    u64 backoffCapMs = 1000;
};

/**
 * Run a worker to completion (coordinator sent Shutdown, or a local
 * SIGINT/SIGTERM drained it). Returns a process exit code: 0 on a
 * clean drain, 1 on protocol failure / version rejection / reconnect
 * budget exhausted.
 */
int runWorker(const WorkerOptions &opts);

} // namespace fh::dist

#endif // FH_DIST_WORKER_HH
