// Compliant form: parallel work is submitted as jobs to a thread pool
// (ParallelRunner, or farm::runFarm for cached sweeps) instead of
// spawning processes; mentioning fork or waitpid in prose stays legal,
// only calls are flagged.
// cnlint: scope(sim)

#include <cstddef>
#include <vector>

namespace pool_api
{
std::size_t submitJob(int job);
std::vector<int> runAll();
} // namespace pool_api

int runHelper(int job)
{
    pool_api::submitJob(job);
    return static_cast<int>(pool_api::runAll().size());
}
