#include "src/ledger/exec.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>

namespace algorand {

size_t ResolveExecWorkers(int configured) {
  if (configured >= 0) {
    return static_cast<size_t>(configured);
  }
  const char* env = std::getenv("ALGORAND_EXEC_WORKERS");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : 0;
}

std::vector<std::vector<uint32_t>> PartitionByAccount(const std::vector<Transaction>& txns) {
  const uint32_t n = static_cast<uint32_t>(txns.size());
  // Union-find over transaction indices, linked through touched accounts:
  // every account remembers the first transaction that touched it, and later
  // transactions union with that representative.
  std::vector<uint32_t> parent(n);
  for (uint32_t i = 0; i < n; ++i) {
    parent[i] = i;
  }
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // Path halving.
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](uint32_t a, uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) {
      // Root at the smaller index so partition order follows block order.
      if (b < a) {
        std::swap(a, b);
      }
      parent[b] = a;
    }
  };
  FlatMap<PublicKey, uint32_t> first_touch;
  first_touch.reserve(2 * n);
  for (uint32_t i = 0; i < n; ++i) {
    for (const PublicKey& pk : {txns[i].from, txns[i].to}) {
      const auto [first, inserted] = first_touch.try_emplace(pk, i);
      if (!inserted) {
        unite(first, i);
      }
    }
  }
  // Bucket by root; roots are minimal indices, so ordering partitions by
  // root index == ordering by smallest member.
  constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slot_of_root(n, kNoSlot);
  std::vector<std::vector<uint32_t>> partitions;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t& slot = slot_of_root[find(i)];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(partitions.size());
      partitions.emplace_back();
    }
    partitions[slot].push_back(i);
  }
  return partitions;
}

void BlockApplier::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    blocks_ = txns_counter_ = parallel_blocks_ = partitions_counter_ = nullptr;
    apply_us_ = partition_txns_ = nullptr;
    return;
  }
  blocks_ = &registry->GetCounter("exec.blocks");
  txns_counter_ = &registry->GetCounter("exec.txns");
  parallel_blocks_ = &registry->GetCounter("exec.parallel_blocks");
  partitions_counter_ = &registry->GetCounter("exec.partitions");
  apply_us_ = &registry->GetHistogram("exec.apply_us", MetricsRegistry::DefaultTimeBucketsMs());
  partition_txns_ =
      &registry->GetHistogram("exec.partition_txns", MetricsRegistry::DefaultCountBuckets());
}

namespace {

// Completion latch for the fan-out phases: waits for exactly the jobs this
// block submitted, never for unrelated work sharing the pool.
struct JobLatch {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;

  void Done() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) {
      cv.notify_all();
    }
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

}  // namespace

bool BlockApplier::CheckPartitions(const std::vector<Transaction>& txns,
                                   const std::vector<std::vector<uint32_t>>& partitions,
                                   const AccountTable& table,
                                   std::vector<AccountOverlay>* overlays,
                                   bool* ran_parallel) const {
  overlays->assign(partitions.size(), AccountOverlay(table));
  const size_t workers = worker_count();
  auto check_one = [&](size_t p) {
    AccountOverlay& overlay = (*overlays)[p];
    for (uint32_t i : partitions[p]) {
      if (!overlay.ApplyTransaction(txns[i])) {
        return false;
      }
    }
    return true;
  };
  if (workers == 0 || partitions.size() < 2) {
    *ran_parallel = false;
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (!check_one(p)) {
        return false;
      }
    }
    return true;
  }
  *ran_parallel = true;
  // Round-robin partitions into a bounded number of jobs so thousands of
  // singleton partitions do not become thousands of queue entries.
  const size_t jobs = std::min(partitions.size(), workers * 4);
  std::atomic<bool> all_ok{true};
  JobLatch latch;
  latch.pending = jobs;
  for (size_t j = 0; j < jobs; ++j) {
    pool_->Submit([&, j] {
      for (size_t p = j; p < partitions.size(); p += jobs) {
        if (!all_ok.load(std::memory_order_relaxed)) {
          break;
        }
        if (!check_one(p)) {
          all_ok.store(false, std::memory_order_relaxed);
          break;
        }
      }
      latch.Done();
    });
  }
  latch.Wait();
  return all_ok.load(std::memory_order_relaxed);
}

bool BlockApplier::ApplyBlock(const std::vector<Transaction>& txns, AccountTable* table,
                              ExecStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  const auto partitions = PartitionByAccount(txns);
  ExecStats local;
  local.txns = txns.size();
  local.partitions = partitions.size();
  for (const auto& part : partitions) {
    local.largest_partition = std::max(local.largest_partition, part.size());
    if (partition_txns_ != nullptr) {
      partition_txns_->Observe(static_cast<double>(part.size()));
    }
  }

  std::vector<AccountOverlay> overlays;
  if (!CheckPartitions(txns, partitions, *table, &overlays, &local.parallel)) {
    if (stats != nullptr) {
      *stats = local;
    }
    return false;
  }

  // Commit phase: every partition's delta is disjoint, so commit order is
  // immaterial; concurrent upserts serialize per table shard, and burned fees
  // sum on the calling thread, the only one that writes total_weight.
  const size_t workers = worker_count();
  if (!local.parallel || workers == 0 || overlays.size() < 2) {
    for (const AccountOverlay& overlay : overlays) {
      overlay.CommitTo(table);
    }
  } else {
    const size_t jobs = std::min(overlays.size(), workers * 4);
    JobLatch latch;
    latch.pending = jobs;
    for (size_t j = 0; j < jobs; ++j) {
      pool_->Submit([&, j] {
        for (size_t p = j; p < overlays.size(); p += jobs) {
          overlays[p].delta().for_each([&](const auto& e) {
            std::lock_guard<std::mutex> lock(shard_mu_[AccountTable::ShardOf(e.key)]);
            table->Upsert(e.key, e.value);
          });
        }
        latch.Done();
      });
    }
    latch.Wait();
    uint64_t fees = 0;
    for (const AccountOverlay& overlay : overlays) {
      fees += overlay.fees_burned();
    }
    table->BurnFees(fees);
  }

  if (blocks_ != nullptr) {
    blocks_->Increment();
    txns_counter_->Increment(local.txns);
    partitions_counter_->Increment(local.partitions);
    if (local.parallel) {
      parallel_blocks_->Increment();
    }
    apply_us_->Observe(std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                                start)
                           .count());
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return true;
}

bool BlockApplier::CheckBlock(const std::vector<Transaction>& txns, const AccountTable& table,
                              ExecStats* stats) const {
  const auto partitions = PartitionByAccount(txns);
  ExecStats local;
  local.txns = txns.size();
  local.partitions = partitions.size();
  for (const auto& part : partitions) {
    local.largest_partition = std::max(local.largest_partition, part.size());
  }
  std::vector<AccountOverlay> overlays;
  const bool ok = CheckPartitions(txns, partitions, table, &overlays, &local.parallel);
  if (stats != nullptr) {
    *stats = local;
  }
  return ok;
}

}  // namespace algorand
