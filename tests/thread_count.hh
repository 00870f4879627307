/**
 * @file
 * Thread counting for tests that check which threads a component
 * starts and joins (Linux only: it reads /proc/self/task).
 */

#ifndef FPSA_TESTS_THREAD_COUNT_HH
#define FPSA_TESTS_THREAD_COUNT_HH

#ifdef __linux__

#include <chrono>
#include <filesystem>
#include <thread>

namespace fpsa
{

/** Threads of this process: the entries of /proc/self/task. */
inline int
processThreadCount()
{
    int threads = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++threads;
    }
    return threads;
}

/**
 * The thread count once it holds still: a joined thread leaves
 * /proc/self/task a moment after its join returns.
 */
inline int
settledThreadCount()
{
    int threads = processThreadCount();
    for (int i = 0; i < 1000; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const int now = processThreadCount();
        if (now == threads)
            break;
        threads = now;
    }
    return threads;
}

/**
 * `settledThreadCount()` to compare later counts against.  It first
 * starts and joins one thread: ThreadSanitizer's runtime starts a
 * background thread of its own at a process's first thread creation,
 * which would otherwise count as the component's.
 */
inline int
baselineThreadCount()
{
    std::thread([] {}).join();
    return settledThreadCount();
}

} // namespace fpsa

#endif // __linux__

#endif // FPSA_TESTS_THREAD_COUNT_HH
