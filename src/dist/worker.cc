#include "dist/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dist/chaos.hh"
#include "dist/messages.hh"
#include "dist/spec.hh"
#include "exec/interrupt.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace fh::dist
{

namespace
{

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

enum class ConnOutcome
{
    CleanShutdown, ///< Shutdown frame or local signal: exit 0
    Fatal,         ///< version rejected / bad spec: exit 1, no retry
    Lost,          ///< connection died: reconnect with backoff
};

/**
 * One worker process: the current connection plus the campaign
 * session, which outlives connections. Everything runs on the calling
 * thread; the session reaches the socket through its abort poll
 * (CampaignConfig::abortCheck), which is pump().
 */
class Worker
{
  public:
    explicit Worker(const WorkerOptions &opts) : opts_(opts) {}
    Worker(const Worker &) = delete; // the session's poll holds `this`
    Worker &operator=(const Worker &) = delete;

    /**
     * One connection's lifetime: dial, Hello/HelloAck, then serve
     * leases until shutdown or the connection dies. `progressed` is
     * set once a Spec or Assign arrives, resetting the caller's
     * reconnect budget.
     */
    ConnOutcome runConnection(u32 reconnect, bool &progressed);

  private:
    /**
     * All of the connection's socket work, never blocking: drain the
     * socket into queued frames (a Shutdown also latches the process
     * shutdown flag at once, so the session's gap check drains a
     * range mid-way); time out a partial frame that never completes;
     * heartbeat once nothing has been sent for heartbeatMs. True once
     * the connection is dead.
     */
    bool pump();
    /** Send one frame; a failed send marks the connection dead. */
    void send(MsgType type, const std::vector<u8> &payload)
    {
        if (conn_.dead)
            return;
        conn_.dead = !sendFrame(conn_.fd, type, payload);
        conn_.lastSend = Clock::now();
    }
    bool applySpec(const std::string &specText);
    void serveLease(const AssignMsg &a);

    const WorkerOptions &opts_;

    struct Conn
    {
        int fd = -1;
        bool dead = false;
        FrameReader reader;
        std::deque<Frame> inbox;
        Clock::time_point lastSend = Clock::now();
        /** When the pending partial frame was first seen. */
        std::optional<Clock::time_point> partialSince;
    } conn_;

    // Kept across reconnects, so a re-dial skips warmup. cfg.threads
    // is host-local; everything deterministic comes from the spec.
    std::string specText_;
    std::unique_ptr<isa::Program> prog_;
    pipeline::CoreParams params_;
    fault::CampaignConfig ccfg_;
    std::unique_ptr<fault::CampaignSession> session_;
};

bool
Worker::pump()
{
    if (conn_.dead)
        return true;
    u8 buf[4096];
    ssize_t n;
    while ((n = ::recv(conn_.fd, buf, sizeof(buf), MSG_DONTWAIT)) > 0 ||
           (n < 0 && errno == EINTR)) {
        if (n > 0)
            conn_.reader.feed(buf, static_cast<size_t>(n));
    }
    // EOF or a hard error: the coordinator may be restarting, and
    // runWorker decides whether to re-dial.
    conn_.dead = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    Frame f;
    while (conn_.reader.next(f)) {
        if (static_cast<MsgType>(f.type) == MsgType::Shutdown)
            exec::requestShutdown();
        conn_.inbox.push_back(std::move(f));
    }
    if (conn_.reader.corrupt()) {
        fh_warn("worker: coordinator stream corrupt (%llu crc "
                "error(s)); dropping connection",
                static_cast<unsigned long long>(
                    conn_.reader.crcErrors()));
        conn_.dead = true;
    }
    // Stall watchdog: a partial frame that never completes (e.g. a
    // flipped length field promising bytes that never come) would
    // otherwise wait forever while our heartbeats keep the lease
    // alive on the coordinator.
    const auto now = Clock::now();
    if (conn_.reader.pendingBytes() == 0) {
        conn_.partialSince.reset();
    } else if (!conn_.partialSince) {
        conn_.partialSince = now;
    } else if (now - *conn_.partialSince >= Ms(opts_.stallTimeoutMs)) {
        fh_warn("worker: partial frame stalled %llu ms; dropping "
                "connection",
                static_cast<unsigned long long>(opts_.stallTimeoutMs));
        conn_.dead = true;
    }
    // Trial frames already prove liveness: heartbeat only when quiet.
    if (now - conn_.lastSend >= Ms(opts_.heartbeatMs)) {
        HeartbeatMsg hb;
        hb.position = session_ ? session_->position() : 0;
        send(MsgType::Heartbeat, hb.encode());
    }
    return conn_.dead;
}

/** Rebuild the session inputs unless specText is the spec they were
 *  built from. */
bool
Worker::applySpec(const std::string &specText)
{
    if (prog_ && specText == specText_)
        return true;
    CampaignSpec spec;
    std::string error;
    if (!CampaignSpec::decode(specText, spec, error)) {
        fh_warn("worker: bad campaign spec: %s", error.c_str());
        return false;
    }
    session_.reset(); // it points at prog_
    prog_ = std::make_unique<isa::Program>(spec.buildProgram());
    params_ = spec.buildParams();
    ccfg_ = spec.campaign;
    ccfg_.threads = opts_.jobs;
    ccfg_.abortCheck = [this] { return pump(); };
    specText_ = specText;
    return true;
}

/**
 * Run one lease, streaming its trials. The session is built on the
 * first lease (its warmup pumps the socket, so the lease stays alive
 * through it) and serves later leases in increasing order. A lease
 * behind its position, which only a requeue issues, gets a fresh
 * session; so does any lease after a stopped range.
 */
void
Worker::serveLease(const AssignMsg &a)
{
    // Reset before building, so two sessions never coexist.
    if (session_ && a.begin < session_->position())
        session_.reset();
    if (!session_)
        session_ = std::make_unique<fault::CampaignSession>(
            params_, prog_.get(), ccfg_);
    const fault::RangeOutcome out = session_->runRange(
        a.begin, a.end,
        [this](u64 trial, const fault::CampaignResult &delta,
               const fault::TrialMeta &meta) {
            TrialMsg t;
            t.trial = trial;
            fault::packTrialCounters(delta, t.d);
            fault::packTrialMeta(meta, t.m);
            send(MsgType::Trial, t.encode());
        });
    if (out.stopped)
        session_.reset(); // its drain moved the master off schedule
    RangeDoneMsg done;
    done.nextTrial = out.nextTrial;
    done.halted = out.halted;
    done.stopped = out.stopped;
    send(MsgType::RangeDone, done.encode());
}

ConnOutcome
Worker::runConnection(u32 reconnect, bool &progressed)
{
    std::string error;
    conn_ = Conn{};
    conn_.fd = connectTo(opts_.endpoint, error);
    if (conn_.fd < 0) {
        fh_warn("worker: %s", error.c_str());
        return exec::shutdownRequested() ? ConnOutcome::CleanShutdown
                                         : ConnOutcome::Lost;
    }
    HelloMsg hello;
    hello.pid = static_cast<u64>(::getpid());
    hello.reconnect = reconnect;
    send(MsgType::Hello, hello.encode());

    bool haveSpec = false;
    bool acked = false;
    ConnOutcome outcome = ConnOutcome::Lost;
    while (outcome == ConnOutcome::Lost) {
        if (conn_.inbox.empty()) {
            if (exec::shutdownRequested()) {
                outcome = ConnOutcome::CleanShutdown;
                break;
            }
            if (conn_.dead)
                break; // outcome stays Lost
            // Wake on input, or in time for the next heartbeat; a
            // signal (process-group ^C) interrupts the poll.
            pollfd pfd{conn_.fd, POLLIN, 0};
            ::poll(&pfd, 1,
                   static_cast<int>(
                       std::clamp<u64>(opts_.heartbeatMs, 1, 100)));
            pump();
            continue;
        }
        const Frame f = std::move(conn_.inbox.front());
        conn_.inbox.pop_front();

        switch (static_cast<MsgType>(f.type)) {
        case MsgType::HelloAck: {
            HelloAckMsg ack;
            if (!HelloAckMsg::decode(f.payload, ack)) {
                fh_warn("worker: bad hello-ack frame");
                conn_.dead = true;
            } else if (!ack.accepted) {
                fh_warn("worker: coordinator rejected protocol "
                        "version %u (wants %u); exiting",
                        kProtocolVersion, ack.version);
                outcome = ConnOutcome::Fatal;
            }
            acked = true;
            break;
        }
        case MsgType::Spec: {
            SpecMsg msg;
            if (!SpecMsg::decode(f.payload, msg) ||
                !applySpec(msg.text))
                outcome = ConnOutcome::Fatal;
            haveSpec = true;
            progressed = true;
            break;
        }
        case MsgType::Assign: {
            AssignMsg a;
            if (!AssignMsg::decode(f.payload, a) || !haveSpec ||
                !acked) {
                fh_warn("worker: bad assign frame");
                conn_.dead = true;
                break;
            }
            progressed = true;
            if (!conn_.dead) // else the lease is re-issued elsewhere
                serveLease(a);
            break;
        }
        case MsgType::Shutdown:
            break; // pump() already latched the flag
        default:
            fh_warn("worker: unexpected frame type %u",
                    static_cast<unsigned>(f.type));
            break;
        }
    }
    closeFabricFd(conn_.fd);
    return outcome;
}

/** Interruptible sleep: returns early once shutdown is requested. */
void
sleepMs(u64 ms)
{
    const auto deadline = Clock::now() + Ms(ms);
    while (!exec::shutdownRequested() && Clock::now() < deadline)
        std::this_thread::sleep_for(Ms(20));
}

} // namespace

int
runWorker(const WorkerOptions &opts)
{
    exec::installShutdownHandlers();
    chaos::reload();

    // Decorrelated jitter (sleep ~ uniform(base, prev*3), capped):
    // reconnecting workers spread out instead of thundering back into
    // a restarting coordinator in lockstep.
    Worker worker(opts);
    u64 prevSleepMs = opts.backoffBaseMs;
    Rng jitter(static_cast<u64>(::getpid()));
    unsigned attempts = 0;
    u32 reconnects = 0;
    while (true) {
        bool progressed = false;
        const ConnOutcome out =
            worker.runConnection(reconnects, progressed);
        if (out == ConnOutcome::CleanShutdown)
            return 0;
        if (out == ConnOutcome::Fatal)
            return 1;
        if (exec::shutdownRequested())
            return 0;
        if (progressed)
            attempts = 0; // the fabric was alive; fresh budget
        if (++attempts > opts.maxReconnects) {
            fh_warn("worker: coordinator unreachable after %u "
                    "attempt(s); giving up",
                    opts.maxReconnects);
            return 1;
        }
        const u64 lo = opts.backoffBaseMs;
        const u64 hi = std::max<u64>(lo + 1, prevSleepMs * 3);
        const u64 sleep =
            std::min(opts.backoffCapMs, jitter.range(lo, hi - 1));
        fh_warn("worker: connection lost; reconnect %u in %llu ms",
                reconnects + 1,
                static_cast<unsigned long long>(sleep));
        sleepMs(sleep);
        prevSleepMs = sleep;
        ++reconnects;
        if (exec::shutdownRequested())
            return 0;
    }
}

} // namespace fh::dist
