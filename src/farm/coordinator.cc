#include "farm/coordinator.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "farm/cache.hh"
#include "obs/frame.hh"
#include "sim/parallel_runner.hh"

namespace cnsim
{
namespace farm
{

namespace
{

/** One live worker process and its coordinator-side connection. */
struct WorkerProc
{
    long pid = -1;
    /** Write end of the worker's stdin (job frames). */
    int to_fd = -1;
    /** Read end of the worker's stdout (result frames). */
    int from_fd = -1;
    /** Read end of the worker's stderr (captured, replayed only on
     *  failure). */
    int err_fd = -1;
    std::string inbuf;
    std::string errbuf;
    /** Index of the in-flight cell, -1 when idle. */
    int cell = -1;
};

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** fork/exec one worker with its three pipes. Fatal on any failure:
 *  a host that cannot spawn processes cannot run a farm at all. */
WorkerProc
spawnWorker(const std::string &exe, const std::string &cache_dir)
{
    int in_pipe[2], out_pipe[2], err_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0 ||
        ::pipe(err_pipe) != 0)
        fatal("farm: cannot create worker pipes (%s)",
              std::strerror(errno));

    pid_t pid = ::fork();
    if (pid < 0)
        fatal("farm: fork failed (%s)", std::strerror(errno));
    if (pid == 0) {
        // Child: wire the pipes onto stdio and become the worker.
        ::dup2(in_pipe[0], 0);
        ::dup2(out_pipe[1], 1);
        ::dup2(err_pipe[1], 2);
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        std::vector<const char *> argv;
        argv.push_back(exe.c_str());
        argv.push_back("--worker");
        if (!cache_dir.empty()) {
            argv.push_back("--cache-dir");
            argv.push_back(cache_dir.c_str());
        }
        argv.push_back(nullptr);
        ::execv(exe.c_str(), const_cast<char *const *>(argv.data()));
        // Only reachable when exec itself failed.
        std::fprintf(stderr, "farm worker: cannot exec '%s' (%s)\n",
                     exe.c_str(), std::strerror(errno));
        _exit(127);
    }

    WorkerProc w;
    w.pid = pid;
    w.to_fd = in_pipe[1];
    w.from_fd = out_pipe[0];
    w.err_fd = err_pipe[0];
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    return w;
}

/** Append whatever is readable right now on @p fd to @p buf.
 *  @return false on EOF. */
bool
drainFd(int fd, std::string &buf)
{
    char chunk[65536];
    ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0)
        return errno == EINTR || errno == EAGAIN;
    if (r == 0)
        return false;
    buf.append(chunk, static_cast<std::size_t>(r));
    return true;
}

/** waitpid wrapper: block until @p pid exits; @return its exit code,
 *  or 128+signal for a signal death. */
int
reapProcess(long pid)
{
    int status = 0;
    for (;;) {
        pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, 0);
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

} // namespace

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        fatal("farm: cannot resolve /proc/self/exe (%s); pass an "
              "explicit worker executable",
              std::strerror(errno));
    buf[n] = '\0';
    return std::string(buf);
}

std::vector<RunResult>
runFarm(const std::vector<CellSpec> &cells, const FarmOptions &opts)
{
    const std::size_t total = cells.size();
    std::vector<RunResult> results(total);
    if (total == 0)
        return results;

    std::vector<std::string> binlogs;
    for (const CellSpec &c : cells)
        binlogs.push_back(c.binlog_out);
    requireDistinctBinlogs(binlogs);

    Cache cache(opts.cache_dir);

    // Result-cache pre-pass: anything already computed by an earlier
    // (or overlapping) sweep is served without touching a worker.
    std::vector<std::size_t> pending;
    std::vector<std::uint32_t> attempts(total, 0);
    std::size_t outstanding = 0;
    for (std::size_t i = 0; i < total; ++i) {
        if (cells[i].cacheable() &&
            cache.loadResult(cellKey(cells[i]), results[i])) {
            if (opts.progress)
                inform("[%zu/%zu] %s: cache hit", i + 1, total,
                       cells[i].label().c_str());
            continue;
        }
        pending.push_back(i);
        ++outstanding;
    }
    if (outstanding == 0)
        return results;

    std::string exe =
        opts.worker_exe.empty() ? selfExePath() : opts.worker_exe;
    unsigned want = opts.workers ? opts.workers
                                 : ParallelRunner::defaultWorkers();
    if (static_cast<std::size_t>(want) > outstanding)
        want = static_cast<unsigned>(outstanding);

    // pending is consumed front-to-back; requeued cells go back to the
    // front so a retried cell runs before new work.
    std::size_t head = 0;
    auto next_cell = [&]() -> int {
        return head < pending.size()
                   ? static_cast<int>(pending[head++])
                   : -1;
    };

    std::vector<WorkerProc> workers;
    std::size_t done = 0;

    auto dispatch = [&](WorkerProc &w) {
        int cell = next_cell();
        if (cell < 0) {
            // No more work: closing stdin is the worker's shutdown
            // signal; reaped when it leaves the poll set.
            closeFd(w.to_fd);
            return;
        }
        CellSpec spec = cells[static_cast<std::size_t>(cell)];
        spec.attempt = attempts[static_cast<std::size_t>(cell)];
        w.cell = cell;
        if (!obs::writeFrame(w.to_fd, frame_job, serializeCell(spec))) {
            // The worker died before reading the job; its EOF handling
            // below requeues the cell.
            w.inbuf.clear();
        }
    };

    auto fail_or_requeue = [&](WorkerProc &w, long pid,
                               const char *why) {
        int cell = w.cell;
        w.cell = -1;
        if (cell < 0)
            return;
        auto ci = static_cast<std::size_t>(cell);
        if (++attempts[ci] >= 2) {
            fatal("farm: cell %s (key %s) failed twice (%s); last "
                  "worker stderr:\n%s",
                  cells[ci].label().c_str(),
                  keyString(cellKey(cells[ci])).c_str(), why,
                  w.errbuf.c_str());
        }
        if (opts.progress)
            warn("farm: worker pid %ld lost cell %s (%s); requeueing "
                 "on a fresh worker",
                 pid, cells[ci].label().c_str(), why);
        // Front of the queue: the retry runs before untouched cells.
        pending.insert(pending.begin() +
                           static_cast<std::ptrdiff_t>(head),
                       ci);
    };

    /** Tear a worker down (optionally with SIGKILL first), reap it,
     *  and requeue its in-flight cell. */
    auto destroy_worker = [&](WorkerProc &w, bool kill_first,
                              const char *why) {
        if (kill_first)
            ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        closeFd(w.to_fd);
        closeFd(w.from_fd);
        // Capture any last stderr (error messages usually arrive just
        // before death).
        while (w.err_fd >= 0 && drainFd(w.err_fd, w.errbuf)) {
        }
        closeFd(w.err_fd);
        long pid = w.pid;
        int code = reapProcess(pid);
        w.pid = -1;
        if (w.cell >= 0) {
            fail_or_requeue(w, pid, why);
        } else if (code != 0) {
            warn("farm: idle worker exited with status %d", code);
        }
    };

    for (unsigned i = 0; i < want; ++i) {
        workers.push_back(spawnWorker(exe, opts.cache_dir));
        dispatch(workers.back());
    }

    while (done < outstanding) {
        // (Re)build the poll set over live workers each round; the
        // worker count is tiny, so the rebuild cost is noise.
        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> owner;  // (worker, is_err)
        for (std::size_t wi = 0; wi < workers.size(); ++wi) {
            if (workers[wi].pid < 0)
                continue;
            if (workers[wi].from_fd >= 0) {
                fds.push_back({workers[wi].from_fd, POLLIN, 0});
                owner.emplace_back(wi, false);
            }
            if (workers[wi].err_fd >= 0) {
                fds.push_back({workers[wi].err_fd, POLLIN, 0});
                owner.emplace_back(wi, true);
            }
        }
        if (fds.empty())
            fatal("farm: no live workers with %zu cells outstanding",
                  outstanding - done);
        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("farm: poll failed (%s)", std::strerror(errno));
        }

        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (!(fds[fi].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerProc &w = workers[owner[fi].first];
            if (w.pid < 0)
                continue;  // torn down earlier this round
            if (owner[fi].second) {
                if (!drainFd(w.err_fd, w.errbuf))
                    closeFd(w.err_fd);
                continue;
            }
            if (!drainFd(w.from_fd, w.inbuf)) {
                // EOF mid-batch: the worker died (clean exits only
                // happen after we close its stdin).
                destroy_worker(w, false, "worker exited");
                if (w.pid < 0 && head < pending.size()) {
                    workers.push_back(
                        spawnWorker(exe, opts.cache_dir));
                    dispatch(workers.back());
                }
                continue;
            }
            // Decode every complete frame in the buffer.
            for (;;) {
                obs::Frame frame;
                std::size_t consumed = 0;
                obs::FrameStatus st = obs::decodeFrame(
                    reinterpret_cast<const std::uint8_t *>(
                        w.inbuf.data()),
                    w.inbuf.size(), frame, consumed);
                if (st == obs::FrameStatus::Incomplete ||
                    st == obs::FrameStatus::Eof)
                    break;
                if (st != obs::FrameStatus::Ok ||
                    frame.type != frame_result) {
                    destroy_worker(w, true, "torn result frame");
                    if (head < pending.size()) {
                        workers.push_back(
                            spawnWorker(exe, opts.cache_dir));
                        dispatch(workers.back());
                    }
                    break;
                }
                w.inbuf.erase(0, consumed);
                sample::Reader rd(frame.payload.data(),
                                  frame.payload.size(),
                                  "<result frame>");
                std::uint64_t key = rd.u64();
                std::string body(
                    frame.payload.data() + sizeof(std::uint64_t),
                    frame.payload.size() - sizeof(std::uint64_t));
                int cell = w.cell;
                if (cell < 0)
                    fatal("farm: unsolicited result frame from worker "
                          "pid %ld",
                          w.pid);
                auto ci = static_cast<std::size_t>(cell);
                std::uint64_t want_key = cellKey(cells[ci]);
                if (key != want_key)
                    fatal("farm: result key %s does not match cell %s "
                          "(key %s)",
                          keyString(key).c_str(),
                          cells[ci].label().c_str(),
                          keyString(want_key).c_str());
                results[ci] =
                    deserializeResult(body, "<result frame>");
                if (cells[ci].cacheable())
                    cache.storeResult(want_key, results[ci]);
                w.cell = -1;
                ++done;
                if (opts.progress)
                    inform("[%zu/%zu] %s: worker pid %ld", done,
                           outstanding, cells[ci].label().c_str(),
                           w.pid);
                dispatch(w);
            }
        }
    }

    // Drain: close remaining job fds and reap every live worker.
    for (WorkerProc &w : workers) {
        if (w.pid < 0)
            continue;
        destroy_worker(w, false, "shutdown");
    }
    return results;
}

} // namespace farm
} // namespace cnsim
