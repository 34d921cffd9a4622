#include "exp/parallel.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/env_config.hpp"

namespace rtp {

unsigned
parseThreadCountEnv(const char *name, unsigned fallback)
{
    // The strict decimal rules every RTP_* count shares
    // (exp/env_config.hpp), plus a sanity cap on thread counts.
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    const std::uint64_t n = parseEnvPositive(name, fallback);
    if (n > 65536)
        throw std::invalid_argument(std::string(name) +
                                    " must be at most 65536, got \"" +
                                    value + "\"");
    return static_cast<unsigned>(n);
}

ThreadBudget
threadBudgetFromEnv(unsigned hw)
{
    if (hw == 0) {
        hw = std::thread::hardware_concurrency();
        if (hw == 0)
            hw = 1;
    }
    const bool sweep_set = std::getenv("RTP_THREADS") != nullptr;
    const bool sim_set = std::getenv("RTP_SIM_THREADS") != nullptr;

    ThreadBudget b;
    b.simThreads = parseThreadCountEnv("RTP_SIM_THREADS", 1);
    if (sweep_set)
        b.sweepThreads = parseThreadCountEnv("RTP_THREADS", hw);
    else if (sim_set)
        b.sweepThreads = std::max(1u, hw / b.simThreads);
    else
        b.sweepThreads = hw;
    return b;
}

unsigned
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return parseThreadCountEnv("RTP_THREADS", hw >= 1 ? hw : 1);
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    jobReady_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        jobs_.push(std::move(job));
        inFlight_++;
    }
    jobReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            jobReady_.wait(
                lock, [this] { return stop_ || !jobs_.empty(); });
            if (jobs_.empty())
                return; // stop_ set and queue drained
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        job();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            inFlight_--;
            if (inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

void
reportSweepTiming(const char *label, const SweepTiming &timing)
{
    std::fprintf(stderr,
                 "[rtp-parallel] %s: %zu runs on %u threads, wall "
                 "%.2fs, serial-equivalent %.2fs, speedup %.2fx\n",
                 label, timing.runs, timing.threads,
                 timing.wallSeconds, timing.serialSeconds,
                 timing.speedup());
}

} // namespace rtp
