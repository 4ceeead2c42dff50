#include "src/core/tx_verifier.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace algorand {

bool TxSigVerifier::VerifyOne(const Transaction& tx) const {
  if (cache_ == nullptr) {
    return ComputeOne(tx) != 0;
  }
  return cache_->GetOrCompute(tx.Id(), [&] { return ComputeOne(tx); }) != 0;
}

bool TxSigVerifier::VerifyBatch(const std::vector<Transaction>& txns) const {
  const size_t workers = pool_ == nullptr ? 0 : pool_->worker_count();
  if (workers == 0 || txns.size() < 2) {
    for (const Transaction& tx : txns) {
      if (!VerifyOne(tx)) {
        return false;
      }
    }
    return true;
  }
  // Chunk the block across workers; each chunk goes through the cache so a
  // signature already checked costs a lookup, not a verification.
  const size_t jobs = std::min(txns.size(), workers * 4);
  std::atomic<bool> all_ok{true};
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = jobs;
  for (size_t j = 0; j < jobs; ++j) {
    pool_->Submit([&, j] {
      for (size_t i = j; i < txns.size(); i += jobs) {
        if (!all_ok.load(std::memory_order_relaxed)) {
          break;
        }
        if (!VerifyOne(txns[i])) {
          all_ok.store(false, std::memory_order_relaxed);
          break;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) {
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pending == 0; });
  return all_ok.load(std::memory_order_relaxed);
}

}  // namespace algorand
