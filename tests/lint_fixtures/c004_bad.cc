// Seeded CNL-C004 violations: process control in simulator code.
// Sweeps run as ParallelRunner jobs on threads (raw std::thread is
// confined there by CNL-C002); no code forks, execs or reaps a child
// process.
// cnlint: scope(sim)

#include <sys/wait.h>
#include <unistd.h>

int spawnHelper(const char *exe)
{
    pid_t pid = fork(); // cnlint-fixture-expect: CNL-C004
    if (pid == 0)
        execl(exe, exe, nullptr); // cnlint-fixture-expect: CNL-C004
    int status = 0;
    waitpid(pid, &status, 0); // cnlint-fixture-expect: CNL-C004
    return status;
}
