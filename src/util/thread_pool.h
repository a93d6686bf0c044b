#ifndef MEL_UTIL_THREAD_POOL_H_
#define MEL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mel::util {

/// How ParallelFor distributes indices across participants.
// One enumerator left: host fingerprints still print the scheduler name.
enum class SchedulerKind : uint8_t {
  /// Participants pull grain-sized chunks from one shared atomic cursor.
  kChunkPull,
};

/// \brief Fixed-size thread pool with a blocking data-parallel primitive.
///
/// The pool owns `num_threads() - 1` worker threads; the thread calling
/// ParallelFor is the remaining participant, so a pool of size 1 runs
/// everything inline with zero synchronization. There are no task
/// futures — the only entry point is ParallelFor, which is exactly what
/// the index constructions and batch linking need.
///
/// Scheduling is dynamic chunking: every participant repeatedly claims
/// the next `grain` indices from one shared atomic cursor until the
/// range is exhausted, so slow items delay only the chunk they sit in.
///
/// Concurrency contract:
///  * ParallelFor invokes fn(i) exactly once for every i in [begin, end).
///  * ParallelFor may be called from any thread; concurrent calls on the
///    same pool serialize on an internal mutex (one region at a time).
///  * A ParallelFor issued from inside a ParallelFor body (same or other
///    pool) runs serially inline — nesting never deadlocks and never
///    oversubscribes.
///  * The first exception thrown by `fn` cancels the remaining chunks
///    and is rethrown on the calling thread after all workers left the
///    region.
///  * Degenerate regions run inline on the caller with zero
///    synchronization — no job is opened and no worker is woken when
///    the region is empty, fits in one grain (`end - begin <= grain`),
///    is capped to one participant (`max_threads == 1`), the pool has
///    no workers, or the call is nested inside another region. The only
///    shared-state touch on that path is one relaxed metrics increment,
///    and only while metrics are enabled.
class ThreadPool {
 public:
  /// \param num_threads total parallelism including the calling thread;
  ///        0 means std::thread::hardware_concurrency().
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism of the pool (workers + the calling thread).
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size()) + 1;
  }

  /// The scheduler this pool runs (always kChunkPull).
  SchedulerKind scheduler() const { return SchedulerKind::kChunkPull; }

  /// Process-wide shared pool sized to the hardware. Construction happens
  /// on first use; the pool lives for the rest of the process.
  static ThreadPool& Shared();

  /// Invokes fn(i) exactly once for every i in [begin, end).
  ///
  /// \param grain the number of indices a participant claims per
  ///        scheduling step (0 behaves as 1); pick it so one chunk
  ///        amortizes an atomic increment on the shared cursor, i.e. a
  ///        few hundred nanoseconds of work or more.
  /// \param max_threads cap on participants for this region (0 = the
  ///        whole pool). Used by callers that expose their own --threads
  ///        knob on top of the shared pool.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn,
                   uint32_t max_threads = 0);

 private:
  struct Job;

  void WorkerLoop(uint32_t worker_index);
  /// Chunk-pull loop over the shared cursor, run by every participant.
  void RunChunks(Job* job);
  /// Records the first exception and cancels the region. Call from a
  /// catch block.
  void CaptureException(Job* job);

  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;  // workers: a new region is open
  std::condition_variable done_cv_;  // caller: all workers left the region
  Job* job_ = nullptr;               // open region, or nullptr
  uint64_t job_generation_ = 0;
  uint32_t workers_in_job_ = 0;
  uint32_t job_worker_limit_ = 0;
  std::exception_ptr first_exception_;
  bool shutdown_ = false;

  std::mutex submit_mu_;  // serializes concurrent ParallelFor callers
};

}  // namespace mel::util

#endif  // MEL_UTIL_THREAD_POOL_H_
