// VerifyPool: a small worker-thread pool for fork-join batch work.
//
// The paper's evaluation (§10.1) identifies signature and VRF verification as
// the dominant CPU cost of a node. TxSigVerifier::VerifyBatch splits a
// block's signature checks into chunks, runs them on these workers and waits
// for all of them; the block-apply pipeline (ledger/exec.h) uses a second
// pool the same way for conflict partitions. The calling thread always waits
// for its jobs, so the pool never makes a protocol decision: a run with N
// workers is decision-for-decision equal to a run with zero (the default,
// which stays single-threaded and fully deterministic).
#ifndef ALGORAND_SRC_COMMON_VERIFY_POOL_H_
#define ALGORAND_SRC_COMMON_VERIFY_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace algorand {

class VerifyPool {
 public:
  // Starts `workers` threads. 0 is valid and means the pool is inert:
  // Submit() runs nothing and callers should keep verifying inline.
  explicit VerifyPool(size_t workers);

  // Drains the queue (every submitted job still runs) and joins the workers.
  ~VerifyPool();

  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  // Enqueues a job for a worker. A job that borrows the caller's state must
  // be waited for before that state dies (VerifyBatch and BlockApplier count
  // their jobs down). No-op when the pool has zero workers.
  void Submit(std::function<void()> job);

  // Blocks until the queue is empty and every worker is idle.
  void Drain();

  size_t worker_count() const { return threads_.size(); }

  // Routes pool counters through `registry`: "<prefix>.pool_jobs" (submitted)
  // and the "<prefix>.pool_queue_depth" histogram (depth observed at submit).
  // The prefix keeps pools with different jobs apart — "verify" for the
  // signature/VRF pipeline, "exec" for the block-apply pipeline.
  void AttachMetrics(MetricsRegistry* registry, const std::string& prefix = "verify");

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;        // Signals workers: work or stop.
  std::condition_variable idle_cv_;   // Signals Drain: queue empty, all idle.
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;  // Jobs currently executing.
  bool stop_ = false;

  Counter fallback_jobs_;
  Counter* jobs_ = &fallback_jobs_;
  Histogram* queue_depth_ = nullptr;
};

// Resolves the worker count for a `verify_workers` config field: a
// non-negative value is used as-is; a negative value (the default) defers to
// the ALGORAND_VERIFY_WORKERS environment variable, else 0 (single-threaded).
// The env hook lets CI run the whole existing test suite with the threaded
// pipeline enabled without touching each test's config.
size_t ResolveVerifyWorkers(int configured);

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_VERIFY_POOL_H_
